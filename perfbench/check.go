package main

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// This file is the benchmark's own reading of both instruction sets, so
// that a served kernel is judged without the program's verifier. A
// machine has sorted registers r1..rn holding the input and scratch
// registers s1..sm starting at 0; cmp sets lt and gt, cmovl/cmovg move
// when their flag is set, min/max combine in place.

type instr struct {
	op       string
	dst, src int
}

// parseKernel reads a served kernel ("op dst src" per line or per ';').
func parseKernel(text, isaName string, n int) ([]instr, int, error) {
	allowed := map[string]bool{"mov": true, "cmp": true, "cmovl": true, "cmovg": true}
	if isaName == "minmax" {
		allowed = map[string]bool{"mov": true, "min": true, "max": true}
	}
	var prog []instr
	scratch := 0
	reg := func(name string) (int, error) {
		if len(name) < 2 {
			return 0, fmt.Errorf("bad register %q", name)
		}
		k, err := strconv.Atoi(name[1:])
		if err != nil || k < 1 {
			return 0, fmt.Errorf("bad register %q", name)
		}
		switch {
		case name[0] == 'r' && k <= n:
			return k - 1, nil
		case name[0] == 's' && k <= 4:
			scratch = max(scratch, k)
			return n + k - 1, nil
		}
		return 0, fmt.Errorf("bad register %q", name)
	}
	for _, line := range strings.FieldsFunc(text, func(c rune) bool { return c == '\n' || c == ';' }) {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 3 || !allowed[f[0]] {
			return nil, 0, fmt.Errorf("instruction %q is not in the %s ISA", line, isaName)
		}
		d, err := reg(f[1])
		if err != nil {
			return nil, 0, err
		}
		s, err := reg(f[2])
		if err != nil {
			return nil, 0, err
		}
		prog = append(prog, instr{op: f[0], dst: d, src: s})
	}
	return prog, scratch, nil
}

// execute runs prog on the input and returns r1..rn.
func execute(prog []instr, in []int, scratch int) []int {
	regs := make([]int, len(in)+scratch)
	copy(regs, in)
	var lt, gt bool
	for _, x := range prog {
		a, b := regs[x.dst], regs[x.src]
		switch x.op {
		case "mov":
			regs[x.dst] = b
		case "cmp":
			lt, gt = a < b, a > b
		case "cmovl":
			if lt {
				regs[x.dst] = b
			}
		case "cmovg":
			if gt {
				regs[x.dst] = b
			}
		case "min":
			regs[x.dst] = min(a, b)
		case "max":
			regs[x.dst] = max(a, b)
		}
	}
	return regs[:len(in)]
}

// sortsInput reports whether out is in, sorted ascending.
func sortsInput(in, out []int) bool {
	want := slices.Clone(in)
	slices.Sort(want)
	return slices.Equal(want, out)
}

// checkKernel runs a served kernel over every permutation of 1..n and,
// for duplicate-safe specs, over every weak order placed at every offset
// around the zero that scratch registers start with. It also checks the
// reported length.
func checkKernel(text, isaName string, n, length int, dupSafe bool) error {
	prog, scratch, err := parseKernel(text, isaName, n)
	if err != nil {
		return err
	}
	if len(prog) != length {
		return fmt.Errorf("kernel has %d instructions, response says %d", len(prog), length)
	}
	var inputs [][]int
	if dupSafe {
		for _, w := range weakOrders(n) {
			k := slices.Max(w)
			for off := -k - 1; off <= 0; off++ {
				in := make([]int, n)
				for i, v := range w {
					in[i] = v + off
				}
				inputs = append(inputs, in)
			}
		}
	} else {
		inputs = permutations(n)
	}
	for _, in := range inputs {
		if out := execute(prog, in, scratch); !sortsInput(in, out) {
			return fmt.Errorf("%s n=%d kernel maps %v to %v", isaName, n, in, out)
		}
	}
	return nil
}

// permutations returns every permutation of 1..n.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := make([]int, 0, n)
			q = append(q, p[:i]...)
			q = append(q, n)
			q = append(q, p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// weakOrders returns every assignment of ranks 1..k (k ≤ n, every rank
// used) to n positions: one input per ordering class with ties.
func weakOrders(n int) [][]int {
	var out [][]int
	cur := make([]int, n)
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			k := slices.Max(cur)
			for r := 1; r <= k; r++ {
				if !slices.Contains(cur, r) {
					return
				}
			}
			out = append(out, slices.Clone(cur))
			return
		}
		for v := 1; v <= n; v++ {
			cur[i] = v
			rec(i + 1)
		}
	}
	rec(0)
	return out
}
