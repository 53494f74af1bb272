package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// startProfiles, in -profile mode, captures a CPU profile of every server
// of t over the next length (3 s when length is 0) through its -pprof side
// listener. The returned stop waits for the captures, adds an alloc
// profile of each, and prints each profile's cumulative top 15. Outside
// -profile mode it does nothing.
func (e *env) startProfiles(t *topology, phase string, length time.Duration) func() error {
	if !e.opts.profile {
		return func() error { return nil }
	}
	secs := int(length.Seconds()) - 1
	if length == 0 {
		secs = 3
	}
	secs = max(1, secs)
	dir := filepath.Join(e.build, "profiles")
	client := &http.Client{Timeout: time.Duration(secs+30) * time.Second}
	var wg sync.WaitGroup
	errs := make([]error, len(t.procs()))
	files := make([]string, len(t.procs()))
	for i, p := range t.procs() {
		files[i] = filepath.Join(dir, fmt.Sprintf("%s-%s-%s", e.opts.workload, phase, p.name))
		wg.Add(1)
		go func(i int, p *proc) {
			defer wg.Done()
			errs[i] = fetch(client, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", p.pprof, secs), files[i]+"-cpu.pprof")
		}(i, p)
	}
	return func() error {
		wg.Wait()
		for i, p := range t.procs() {
			if errs[i] != nil {
				return fmt.Errorf("cpu profile of %s: %w", p.name, errs[i])
			}
			if err := fetch(client, "http://"+p.pprof+"/debug/pprof/allocs", files[i]+"-allocs.pprof"); err != nil {
				return fmt.Errorf("alloc profile of %s: %w", p.name, err)
			}
			for _, kind := range []string{"cpu", "allocs"} {
				out, err := exec.CommandContext(e.ctx, "go", "tool", "pprof", "-top", "-cum", "-nodecount=15",
					p.bin, files[i]+"-"+kind+".pprof").CombinedOutput()
				if err != nil {
					return fmt.Errorf("go tool pprof: %v\n%s", err, out)
				}
				fmt.Fprintf(e.out, "--- %s %s profile of %s during %s (%s-%s.pprof)\n%s",
					kind, e.opts.workload, p.name, phase, files[i], kind, out)
			}
		}
		return nil
	}
}

// fetch stores the body of a GET in path.
func fetch(client *http.Client, url, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s", url, resp.Status)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, resp.Body); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
