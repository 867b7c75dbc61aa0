package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// experimentsSetups is how many times a run times the binary's start-up.
const experimentsSetups = 20

// sweepArgs is one operation of the experiments workload: every section of
// `experiments -all` (tables, figures 13-18, ablations, latency breakdown,
// thermal study, DTM matrix) over two runner workers, with the figures cut
// to mgrid and 30k-cycle windows so that one run of the benchmark repeats
// the whole sweep several times. The full-size `-all` takes about 31 s on
// 2 CPUs, longer than a run may last. Shorter windows would make more
// sweeps, but their time would then be mostly machine set-up, which
// repeated poorly from run to run.
func sweepArgs(o opts) []string {
	if o.quick {
		return []string{"-table", "1"}
	}
	return []string{"-all", "-parallel", "2", "-bench", "mgrid", "-warm", "5000", "-measure", "30000",
		"-seed", strconv.FormatUint(o.seed, 10)}
}

// invocation is what one run of the experiments binary produced.
type invocation struct {
	firstLine time.Duration // exec until the first line of output
	wall      time.Duration // exec until exit
	sections  int           // "=== ... ===" headers printed
	digest    string        // SHA-256 of standard output
	maxRSSKB  int64
}

// invoke runs the binary once, streaming its unbuffered standard output so
// each section header can be timestamped as it appears.
func invoke(bin string, args []string, log *spanLog) (invocation, error) {
	var inv invocation
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return inv, err
	}
	root := log.begin("experiments "+strings.Join(args, " "), 0)
	defer log.end(root)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return inv, err
	}
	h := sha256.New()
	sc := bufio.NewScanner(io.TeeReader(stdout, h))
	section := 0
	for sc.Scan() {
		if inv.firstLine == 0 {
			inv.firstLine = time.Since(t0)
		}
		if line := sc.Text(); strings.HasPrefix(line, "=== ") {
			log.end(section)
			section = log.begin(strings.Trim(line, "= "), root)
			inv.sections++
		}
	}
	log.end(section)
	scanErr := sc.Err()
	if scanErr != nil {
		// Drain the pipe so the child cannot block writing before Wait.
		_, _ = io.Copy(io.Discard, stdout)
	}
	waitErr := cmd.Wait()
	inv.wall = time.Since(t0)
	inv.digest = hex.EncodeToString(h.Sum(nil))
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		inv.maxRSSKB = ru.Maxrss
	}
	switch {
	case waitErr != nil:
		return inv, fmt.Errorf("%s %v: %v: %s", bin, args, waitErr, bytes.TrimSpace(stderr.Bytes()))
	case scanErr != nil:
		return inv, fmt.Errorf("reading %s output: %w", bin, scanErr)
	}
	return inv, nil
}

// runExperiments times the binary's start-up, then repeats the sweep until
// the run's time is up. Every sweep must print the same output. Its peak
// RSS is the median of the sweeps' own peaks: with two simulations in
// flight, where the garbage collector happens to run moves one sweep's
// peak by a fifth.
func runExperiments(o opts) (*measurement, error) {
	m := &measurement{}
	for i := 0; i < experimentsSetups; i++ {
		inv, err := invoke(o.expBin, []string{"-table", "1"}, nil)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, inv.firstLine)
	}
	args := sweepArgs(o)
	var rss []float64
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < o.seconds; n++ {
		inv, err := invoke(o.expBin, args, o.spans)
		m.attempted++
		rss = append(rss, float64(inv.maxRSSKB))
		if err == nil && inv.sections == 0 {
			err = fmt.Errorf("printed no section")
		}
		if err == nil && m.digest != "" && inv.digest != m.digest {
			err = fmt.Errorf("output differs from the first sweep's")
		}
		if err != nil {
			m.fail(1, "sweep %d: %v", n, err)
			continue
		}
		m.digest = inv.digest
		m.ops = append(m.ops, inv.wall)
		m.busy += inv.wall
		m.work++
	}
	m.peakRSSKB = int64(median(rss))
	return m, nil
}
