package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
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
)

// binaries are the programs under test, built from the checkout's source.
type binaries struct {
	serve, router, train string
}

// buildBinaries compiles dramserve, dramrouter and dramtrain from root into
// dir. The go command's build cache makes a rebuild of unchanged source
// nearly free.
func buildBinaries(ctx context.Context, root, dir string) (binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator),
		"./cmd/dramserve", "./cmd/dramrouter", "./cmd/dramtrain")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binaries{
		serve:  filepath.Join(dir, "dramserve"),
		router: filepath.Join(dir, "dramrouter"),
		train:  filepath.Join(dir, "dramtrain"),
	}, nil
}

// fixtureArgs build the served artifact: the 17-workload quick corpus with
// UE-risk telemetry rows, so the artifact answers all three targets. The
// output is byte-identical across runs.
var fixtureArgs = []string{"-quick", "-scale", "32", "-ue-windows", "24", "-seed", "0"}

// buildFixture returns the fixture artifact, building it with dramtrain
// when no artifact from an identical dramtrain binary is cached in dir.
// dramtrain is deterministic, so its binary's hash keys the artifact.
func buildFixture(ctx context.Context, train, dir string) (string, error) {
	sum, err := fileHash(train)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "fixture-"+sum[:16]+".json.gz")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".tmp"
	args := append(append([]string(nil), fixtureArgs...), "-save", tmp)
	cmd := exec.CommandContext(ctx, train, args...)
	var stderr bytes.Buffer
	cmd.Stdout = io.Discard
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("dramtrain: %v\n%s", err, stderr.Bytes())
	}
	return path, os.Rename(tmp, path)
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func copyFile(dst, src string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// proc is one server subprocess.
type proc struct {
	name  string
	url   string // base URL of its serving listener
	pprof string // host:port of its -pprof listener, "" when off
	bin   string
	cmd   *exec.Cmd
	logs  *lockedBuffer
	done  chan struct{}
	err   error // Wait's result, valid once done is closed
}

// lockedBuffer keeps the tail of a subprocess's stderr for diagnostics.
type lockedBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	if len(b.buf) > 64<<10 {
		b.buf = append([]byte(nil), b.buf[len(b.buf)-32<<10:]...)
	}
	return len(p), nil
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return string(b.buf)
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startProc spawns bin listening on a fresh loopback port (plus a -pprof
// side listener when withPprof), passing args after -addr.
func startProc(name, bin string, withPprof bool, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	p := &proc{name: name, url: "http://" + addr, bin: bin, logs: &lockedBuffer{}, done: make(chan struct{})}
	if withPprof {
		if p.pprof, err = freeAddr(); err != nil {
			return nil, err
		}
		full = append(full, "-pprof", p.pprof)
	}
	p.cmd = exec.Command(bin, full...)
	p.cmd.Stdout = p.logs
	p.cmd.Stderr = p.logs
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// waitHealthy polls GET /healthz until it answers 200, the process exits,
// or the deadline passes.
func (p *proc) waitHealthy(client *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (%v):\n%s", p.name, p.err, p.logs)
		default:
		}
		resp, err := client.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy after %v:\n%s", p.name, limit, p.logs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("%s VmHWM: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// userHZ is the kernel's clock-tick rate for /proc CPU times (USER_HZ,
// 100 on every Linux architecture Go supports).
const userHZ = 100

// cpuSeconds reads the process's user plus system CPU time.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, utime
	// and stime are fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed /proc stat", p.name)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", p.name)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s: /proc stat: %w", p.name, err)
	}
	return (utime + stime) / userHZ, nil
}

// stop asks the process to drain (SIGTERM) and waits for it, killing it
// if it has not exited within a few seconds.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// exitedEarly reports a process that died while it should be serving.
func (p *proc) exitedEarly() error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited (%v):\n%s", p.name, p.err, p.logs)
	default:
		return nil
	}
}
