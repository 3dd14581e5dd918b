package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one vnfoptd child process. Every process the benchmark
// starts is stopped (and waited for) before the benchmark exits, and a
// daemon also dies with the benchmark if the benchmark is killed.
type daemon struct {
	bin  string
	args []string
	log  string
	cmd  *exec.Cmd
	done chan struct{}
}

// freeAddr picks a loopback port for the daemon. The port is released
// before the daemon binds it; on a loopback-only box nothing else races
// for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// start execs the daemon and returns when the process exists; it does
// not wait for readiness.
func (d *daemon) start() error {
	f, err := os.OpenFile(d.log, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return fmt.Errorf("start vnfoptd: %w", err)
	}
	d.cmd = cmd
	d.done = make(chan struct{})
	go func() {
		_ = cmd.Wait()
		f.Close()
		close(d.done)
	}()
	return nil
}

// stop signals the daemon and waits for it to exit. SIGTERM is a
// graceful drain with a final snapshot; SIGKILL is a crash.
func (d *daemon) stop(sig syscall.Signal) error {
	if d.cmd == nil {
		return nil
	}
	_ = d.cmd.Process.Signal(sig)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		d.cmd = nil
		return fmt.Errorf("vnfoptd did not exit on %v within 30s", sig)
	}
	d.cmd = nil
	return nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// exited reports whether the process has ended on its own.
func (d *daemon) exited() bool {
	select {
	case <-d.done:
		return true
	default:
		return false
	}
}

// waitOK polls url until it answers 200, the daemon exits, or the
// timeout passes.
func (d *daemon) waitOK(c *http.Client, url string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := c.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if d.exited() {
			return fmt.Errorf("vnfoptd exited before %s answered 200 (see %s)", url, d.log)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not 200 after %v", url, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuSeconds reads a process's user+system CPU time from /proc.
func cpuSeconds(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are space-separated. utime and stime are
	// fields 14 and 15, in clock ticks (USER_HZ, 100 on Linux).
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / 100, nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
