package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"surge/client"
)

// buildSurged compiles the server from source into dir. The package is
// named by import path, so it builds from any directory of the module (and
// fails, as the whole benchmark does, where the module is absent).
func buildSurged(ctx context.Context, dir string) (string, error) {
	bin, err := filepath.Abs(filepath.Join(dir, "surged"))
	if err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "surge/cmd/surged")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build surge/cmd/surged: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port. The port is free
// when we close the listener; a child that loses the race for it fails its
// health wait and startChild retries on another port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// child is one running `surged serve` subprocess.
type child struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr *os.File
	exited chan struct{} // closed once Wait returned
	bootMS float64       // exec -> first healthy /healthz
}

// reaper tracks every live child and scratch directory so that any exit
// path — a failed check, SIGINT, a panic — leaves no process and no data
// directory behind.
type reaper struct {
	mu       sync.Mutex
	children map[*child]struct{}
	dirs     map[string]struct{}
}

func newReaper() *reaper {
	return &reaper{children: map[*child]struct{}{}, dirs: map[string]struct{}{}}
}

func (r *reaper) addDir(dir string) {
	r.mu.Lock()
	r.dirs[dir] = struct{}{}
	r.mu.Unlock()
}

func (r *reaper) removeDir(dir string) {
	os.RemoveAll(dir)
	r.mu.Lock()
	delete(r.dirs, dir)
	r.mu.Unlock()
}

// cleanup kills what is still running and removes what is still on disk.
func (r *reaper) cleanup() {
	r.mu.Lock()
	cs := make([]*child, 0, len(r.children))
	for c := range r.children {
		cs = append(cs, c)
	}
	dirs := make([]string, 0, len(r.dirs))
	for d := range r.dirs {
		dirs = append(dirs, d)
	}
	r.mu.Unlock()
	for _, c := range cs {
		r.kill(c)
	}
	for _, d := range dirs {
		r.removeDir(d)
	}
}

// kill stops the child with SIGKILL and waits until it has ended.
func (r *reaper) kill(c *child) {
	c.cmd.Process.Kill()
	<-c.exited
	c.stderr.Close()
	r.mu.Lock()
	delete(r.children, c)
	r.mu.Unlock()
}

// startChild runs `surged serve` with args on a free port, its stderr
// captured to stderrPath, and waits until /healthz answers ok.
func (r *reaper) startChild(ctx context.Context, bin string, args []string, stderrPath string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		c, err := r.startOnce(ctx, bin, args, stderrPath)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (r *reaper) startOnce(ctx context.Context, bin string, args []string, stderrPath string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	errFile, err := os.OpenFile(stderrPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	cmd.Stderr = errFile
	// If the benchmark itself is killed the kernel takes the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		errFile.Close()
		return nil, err
	}
	c := &child{cmd: cmd, base: "http://" + addr, stderr: errFile, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(c.exited)
	}()
	r.mu.Lock()
	r.children[c] = struct{}{}
	r.mu.Unlock()

	api := client.New(c.base, client.WithHTTPClient(healthClient))
	deadline := time.Now().Add(60 * time.Second)
	for {
		h, err := api.Health(ctx)
		if err == nil && h.OK {
			c.bootMS = ms(time.Since(t0))
			return c, nil
		}
		select {
		case <-c.exited:
			r.kill(c)
			return nil, fmt.Errorf("surged exited during boot (see %s)", stderrPath)
		case <-ctx.Done():
			r.kill(c)
			return nil, ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			r.kill(c)
			return nil, fmt.Errorf("surged not healthy after 60s: %v (see %s)", err, stderrPath)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// healthClient is used only for boot polling; its short timeout keeps a
// wedged child from hanging the run.
var healthClient = &http.Client{Timeout: 5 * time.Second}

// procUsage is what /proc/<pid> says about the child.
type procUsage struct {
	cpu     time.Duration // utime + stime
	peakRSS float64       // VmHWM in MiB
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It is
// 100 on every Linux port Go supports.
const clockTick = 100

func readProc(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// The command name may hold spaces; fields are counted after the ')'.
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return u, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return u, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return u, errors.New("malformed /proc stat times")
	}
	u.cpu = time.Duration(utime+stime) * time.Second / clockTick

	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return u, fmt.Errorf("malformed VmHWM %q", rest)
			}
			u.peakRSS = kb / 1024
			return u, nil
		}
	}
	return u, errors.New("no VmHWM in /proc status")
}

// selfCPU is the load generator's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
