package main

import (
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layers lists the modules a self sample can be charged to, in report
// order. "runtime" is the Go runtime and allocator; "other" is the
// remainder (standard library, other repro packages, the benchmark).
var layers = []string{
	"sim", "shard", "netsim", "wireless", "core", "buffer", "mip", "stats",
	"tcp", "runner", "scenario", "traffic", "inet", "runtime", "other",
}

// layerOf maps a fully qualified function name to its layer. The shard
// layer lives inside sim (ShardGroup and its barrier) and netsim (the
// cross-shard exchange and its ports), so those names are split out of
// their packages.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "other"
	}
	rest := fn[len(prefix):]
	dot := strings.IndexByte(rest, '.')
	if dot < 0 {
		return "other"
	}
	pkg, name := rest[:dot], rest[dot+1:]
	if pkg == "sim" || pkg == "netsim" {
		for _, s := range []string{"Shard", "epochBarrier", "xPort", "xEntry"} {
			if strings.Contains(name, s) {
				return "shard"
			}
		}
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// gcFrames mark a sample as garbage-collector work wherever they sit in its
// stack (background marking, sweeping, and mark assists charged to an
// allocating goroutine).
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.markroot", "runtime.gcDrain",
}

// cpuProfile is the part of a CPU profile the report uses.
type cpuProfile struct {
	// stacks holds each sample's frames, leaf first, and weights its CPU
	// nanoseconds.
	stacks  [][]string
	weights []int64
}

// shares returns each layer's self share of CPU in percent, plus the
// shares of samples under the garbage collector and under mallocgc (but
// not the collector). Layer shares sum to 100.
func (p *cpuProfile) shares() (layer map[string]float64, gc, malloc float64) {
	layer = make(map[string]float64, len(layers))
	for _, l := range layers {
		layer[l] = 0
	}
	var total, gcW, mallocW float64
	for i, st := range p.stacks {
		w := float64(p.weights[i])
		if len(st) == 0 || w == 0 {
			continue
		}
		total += w
		layer[layerOf(st[0])] += w
		inGC, inMalloc := false, false
		for _, f := range st {
			for _, g := range gcFrames {
				if f == g {
					inGC = true
				}
			}
			if f == "runtime.mallocgc" {
				inMalloc = true
			}
		}
		if inGC {
			gcW += w
		} else if inMalloc {
			mallocW += w
		}
	}
	if total == 0 {
		return layer, 0, 0
	}
	for l := range layer {
		layer[l] *= 100 / total
	}
	return layer, gcW * 100 / total, mallocW * 100 / total
}

// readProfile lists the profile's stacks with the toolchain's own pprof
// (`go tool pprof -traces`), which prints each distinct stack as a block:
// a separator line, the stack's weight and leaf frame, then one caller
// per line. Go CPU profiles carry their symbols, so no binary is needed.
func readProfile(path string) (*cpuProfile, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local")
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", path, err)
	}
	return parseTraces(string(out))
}

func parseTraces(text string) (*cpuProfile, error) {
	p := &cpuProfile{}
	started, weightNext := false, false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			started, weightNext = true, true
			continue
		}
		frame := strings.TrimSpace(strings.TrimSuffix(line, " (inline)"))
		if !started || frame == "" {
			continue // the header before the first stack
		}
		if !weightNext {
			i := len(p.stacks) - 1
			p.stacks[i] = append(p.stacks[i], frame)
			continue
		}
		weight, leaf, _ := strings.Cut(frame, " ")
		ns, err := strconv.ParseInt(strings.TrimSuffix(weight, "ns"), 10, 64)
		if err != nil || !strings.HasSuffix(weight, "ns") {
			return nil, fmt.Errorf("pprof traces: no weight in %q", line)
		}
		p.stacks = append(p.stacks, []string{strings.TrimSpace(leaf)})
		p.weights = append(p.weights, ns)
		weightNext = false
	}
	if len(p.stacks) == 0 {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return p, nil
}
