package main

import (
	"bufio"
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// layers are the repository's modules as the per-layer metrics name them,
// plus "other" for the benchmark's own code, the profiler, runtime work no
// layer called (the scheduler, profiling signals) and packages no run
// uses.
var layers = []string{"sim", "fabric", "core", "tcp", "mptcp", "workload", "telemetry", "stats", "harness", "runtime", "other"}

// packageOf extracts the import path from a symbolized Go function name
// such as "conga/internal/fabric.(*Link).Send" or
// "slices.Sort[go.shape.int]"; receiver and type-argument lists may
// themselves contain '/' and '.', so they are cut off first.
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if i := strings.IndexByte(fn[slash+1:], '.'); i >= 0 {
		return fn[:slash+1+i]
	}
	return fn
}

// layerOfPackage maps an import path to its layer. It returns "" for
// standard-library helpers (sort, math, time, ...) and for the Go runtime:
// their time belongs to whichever layer called them, except where
// runtimeLayer claims a runtime frame for the allocator or GC.
func layerOfPackage(pkg string) string {
	switch {
	case pkg == "conga":
		return "harness"
	case strings.HasPrefix(pkg, "conga/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "conga/internal/"), "/")
		for _, l := range layers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "main", strings.HasPrefix(pkg, "runtime/") && !strings.HasPrefix(pkg, "runtime/internal/"):
		return "other"
	}
	return ""
}

// allocGCFuncs are the runtime functions (name prefixes after "runtime.")
// that allocate or collect: every runtime frame beneath one of them is the
// runtime layer's. Other runtime frames — map access, hashing, memmove,
// type assertions, the scheduler — belong to their caller.
var allocGCFuncs = []string{
	"mallocgc", "newobject", "newarray", "makeslice", "growslice", "makemap", "rawstring", "rawbyteslice",
	"gc", "bgsweep", "bgscavenge", "sweepone", "scanobject", "greyobject", "markroot", "wbBuf",
	"(*mheap)", "(*mcache)", "(*mcentral)", "(*gcWork)", "(*gcControllerState)",
}

// runtimeLayer reports whether fn is an allocator or GC frame.
func runtimeLayer(fn string) bool {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range allocGCFuncs {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// layerOfStack attributes one sample's stack (leaf first) to the layer of
// its innermost attributable frame: a repository package, the benchmark,
// or an allocator/GC frame of the runtime.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if runtimeLayer(fn) {
			return "runtime"
		}
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// parseTraces sums self time per layer from the text that
// `go tool pprof -traces` prints: blocks separated by "-----+-----" rules,
// each opening with the sample's value followed by its stack, leaf first.
func parseTraces(text string) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration, len(layers))
	var value time.Duration
	var frames []string
	flush := func() {
		if len(frames) > 0 {
			out[layerOfStack(frames)] += value
		}
		frames = frames[:0]
	}
	inBlocks := false
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		if !inBlocks || strings.TrimSpace(line) == "" {
			continue
		}
		fn := strings.TrimSpace(line)
		if len(frames) == 0 {
			v, rest, ok := strings.Cut(fn, " ")
			if !ok {
				return nil, fmt.Errorf("pprof traces: malformed sample line %q", line)
			}
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			value, fn = d, strings.TrimSpace(rest)
		}
		frames = append(frames, strings.TrimSuffix(fn, " (inline)"))
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inBlocks {
		return nil, fmt.Errorf("pprof traces: no samples")
	}
	return out, nil
}

// profileSelfTimes runs the toolchain's pprof over CPU profiles written by
// this process, merging them, and groups their samples by layer.
func profileSelfTimes(paths []string) (map[string]time.Duration, error) {
	out, err := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, paths...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parseTraces(string(out))
}
