package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// flatByPackage reads a CPU profile with `go tool pprof -top` and
// returns its self ("flat") sample counts per Go package, with their
// total. pprof lists inlined functions as nodes of their own, so an
// inlined frame counts to the function it was inlined from.
func flatByPackage(path string) (map[string]int64, int64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-sample_index=samples", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	out := map[string]int64{}
	var total int64
	rows := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		// "      flat  flat%   sum%        cum   cum%" heads the rows;
		// each row is "flat flat% sum% cum cum% name [(inline)]".
		f := strings.Fields(sc.Text())
		if !rows {
			rows = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return nil, 0, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("go tool pprof: row %q: %v", sc.Text(), err)
		}
		out[pkgOf(f[5])] += n
		total += n
	}
	if !rows {
		return nil, 0, fmt.Errorf("go tool pprof: no rows in %q", top)
	}
	return out, total, nil
}

// pkgOf returns the package path of a symbol name such as
// "whitefi/internal/mac.(*Node).slotDone" or "runtime.mallocgc".
// Compiler-generated equality functions count to their type's package
// and bare assembly symbols ("memeqbody") to the runtime.
func pkgOf(sym string) string {
	sym = strings.TrimPrefix(sym, "type:.eq.")
	slash := strings.LastIndex(sym, "/")
	dot := strings.Index(sym[slash+1:], ".")
	if dot < 0 {
		if slash < 0 {
			return "runtime"
		}
		return sym
	}
	return sym[:slash+1+dot]
}
