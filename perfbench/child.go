package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// child is one `datalog serve` process under test, listening on a
// loopback line-protocol port.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the process has been waited for
}

// startChild launches `datalog serve` with the served program and
// returns once it is accepting line-protocol connections. With dataDir
// set the store is durable; snapBytes > 0 sets -snapshot-bytes, and 0
// keeps the server's default.
func startChild(cfg *config, dataDir string, snapBytes int64) (*child, error) {
	progPath := filepath.Join(cfg.work, "served.dl")
	if err := os.WriteFile(progPath, []byte(servedProgram), 0o644); err != nil {
		return nil, err
	}
	args := []string{"serve", "-program", progPath, "-line", "127.0.0.1:0",
		"-workers", strconv.Itoa(serveWorkers)}
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	if snapBytes > 0 {
		args = append(args, "-snapshot-bytes", strconv.FormatInt(snapBytes, 10))
	}
	cmd := exec.Command(cfg.datalog, args...)
	// The child must not outlive the benchmark, even when the benchmark
	// is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start datalog serve: %w", err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() { //repolint:allow goroutine — drains the child's stderr and reaps it; kill and stop wait on done.
		// Drain the log for the life of the process; the first listen
		// line carries the port.
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "line protocol on "); ok && !sent {
				addrc <- strings.TrimSpace(a)
				sent = true
			}
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(c.done)
	}()
	select {
	case c.addr = <-addrc:
		return c, nil
	case <-c.done:
		return nil, fmt.Errorf("datalog serve exited before listening: %v", cmd.ProcessState)
	case <-time.After(120 * time.Second):
		c.kill()
		return nil, fmt.Errorf("datalog serve did not start listening")
	}
}

// kill sends SIGKILL and waits for the process to be reaped. It is
// safe to call more than once, and on nil.
func (c *child) kill() {
	if c == nil {
		return
	}
	c.cmd.Process.Kill()
	<-c.done
}

// stop sends SIGTERM, the server's graceful drain (finish in-flight
// requests, checkpoint, exit 0), and waits for the process to exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-c.done:
	case <-time.After(60 * time.Second):
		c.kill()
		return fmt.Errorf("datalog serve did not drain within 60s")
	}
	if !c.cmd.ProcessState.Success() {
		return fmt.Errorf("datalog serve drain: %v", c.cmd.ProcessState)
	}
	return nil
}

// peakRSSMiB is the child's VmHWM, its resident-set high-water mark.
func (c *child) peakRSSMiB() (float64, error) { return vmHWM(c.cmd.Process.Pid) }

// vmHWM reads a process's VmHWM from /proc, in MiB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// conn is one line-protocol client connection.
type conn struct {
	c  net.Conn
	rd *bufio.Reader
	wr *bufio.Writer
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, rd: bufio.NewReaderSize(c, 64<<10), wr: bufio.NewWriter(c)}, nil
}

func (c *conn) close() { c.c.Close() }

// do sends one command and returns the response's status line and the
// lines that follow it, up to the blank line ending the block.
func (c *conn) do(cmd string) (status string, body []string, err error) {
	if _, err := c.wr.WriteString(cmd + "\n"); err != nil {
		return "", nil, err
	}
	if err := c.wr.Flush(); err != nil {
		return "", nil, err
	}
	for first := true; ; first = false {
		line, err := c.rd.ReadString('\n')
		if err != nil {
			return "", nil, fmt.Errorf("%s: %w", cmd, err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			return status, body, nil
		case first:
			status = line
		default:
			body = append(body, line)
		}
	}
}

// outcome classifies one reply for the failure count.
type outcome int

const (
	okAnswer outcome = iota
	wrongAnswer
	errReply     // err ...
	shedReply    // shed ... or draining
	unknownReply // unknown ...
)

func classify(status string) outcome {
	switch {
	case strings.HasPrefix(status, "ok"):
		return okAnswer
	case strings.HasPrefix(status, "shed"), status == "draining":
		return shedReply
	case strings.HasPrefix(status, "unknown"):
		return unknownReply
	default:
		return errReply
	}
}

// checkRows classifies a query reply against the expected sorted rows.
func checkRows(status string, body, want []string) outcome {
	if o := classify(status); o != okAnswer {
		return o
	}
	if status != fmt.Sprintf("ok n=%d", len(want)) || !equalStrings(body, want) {
		return wrongAnswer
	}
	return okAnswer
}

func sortedStrings(s []string) []string { sort.Strings(s); return s }

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// statsField extracts key=<uint> from a `stats` status line.
func statsField(status, key string) (uint64, bool) {
	for _, f := range strings.Fields(status) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
