package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"sortsynth/internal/sortgen"
)

const (
	sortSize   = 1 << 16 // elements per array handed to HybridSort and slices.Sort
	sortArrays = 4       // seeded arrays per shape
	fixedN     = 16      // Plan.Sorter length
	fixedBatch = 1 << 12 // arrays per timed Plan.Sorter batch
	// fixedPerRound is how many Plan.Sorter batches follow each round of
	// shape pairs: about a fifth of the round's time.
	fixedPerRound = 4
)

type sortState struct {
	shapes    []string
	arrays    [][][]int // [shape][k] input
	want      [][][]int // the same, sorted by slices.Sort
	plan      *sortgen.Plan
	fixed     []int // fixedBatch inputs of fixedN, back to back
	fixedWant []int
}

func setupSort(r *run) (any, error) {
	rng := rand.New(rand.NewSource(r.seed))
	st := &sortState{}
	for _, d := range sortgen.Distributions() {
		st.shapes = append(st.shapes, d.Name)
		var in, want [][]int
		for k := 0; k < sortArrays; k++ {
			a := d.Gen(rng, sortSize)
			in = append(in, a)
			s := slices.Clone(a)
			slices.Sort(s)
			want = append(want, s)
		}
		st.arrays = append(st.arrays, in)
		st.want = append(st.want, want)
	}
	var err error
	if st.plan, err = sortgen.Compose(fixedN); err != nil {
		return nil, err
	}
	st.fixed = make([]int, fixedBatch*fixedN)
	for i := range st.fixed {
		st.fixed[i] = rng.Intn(2001) - 1000
	}
	st.fixedWant = slices.Clone(st.fixed)
	for i := 0; i < len(st.fixedWant); i += fixedN {
		slices.Sort(st.fixedWant[i : i+fixedN])
	}
	return st, nil
}

func phaseSort(r *run, s any) error {
	st := s.(*sortState)
	if r.traced {
		return tracedSort(r, st)
	}
	buf := make([]int, sortSize)
	sorter := st.plan.Sorter()
	fbuf := make([]int, len(st.fixed))
	perShape := make([][]float64, len(st.shapes))
	var ratios, fixed []float64
	var hybTotal time.Duration
	hybElems := 0
	// Each round times every shape's pair, then fixedPerRound Plan.Sorter
	// batches, so both metrics sample the whole run and a slow stretch of
	// the host weighs on both alike.
	start := time.Now()
	for k := 0; time.Since(start) < r.dur; k++ {
		for si := range st.shapes {
			in, want := st.arrays[si][k%sortArrays], st.want[si][k%sortArrays]
			hyb := timeSort(r, nil, sortgen.HybridSort, in, want, buf, "HybridSort "+st.shapes[si])
			ref := timeSort(r, nil, slices.Sort[[]int], in, want, buf, "slices.Sort "+st.shapes[si])
			perShape[si] = append(perShape[si], float64(hyb)/sortSize)
			ratios = append(ratios, float64(hyb)/float64(ref))
			hybTotal += hyb
			hybElems += sortSize
		}
		for b := 0; b < fixedPerRound; b++ {
			fixed = append(fixed, float64(timeFixed(r, sorter, st, fbuf))/float64(len(st.fixed)))
		}
	}
	var medians []float64
	var shapes []string
	for si, xs := range perShape {
		medians = append(medians, median(xs))
		shapes = append(shapes, fmt.Sprintf("%s %.1f", st.shapes[si], median(xs)))
	}
	r.report = append(r.report, "HybridSort ns/element by shape: "+strings.Join(shapes, ", "))
	// light_ms is one Plan.Sorter batch, heavy_ms one HybridSort array
	// (geometric mean over the shapes), throughput_per_s HybridSort's
	// elements per second over the whole run.
	r.set("light_ms", "ms", median(fixed)*float64(len(st.fixed))/1e6)
	r.set("heavy_ms", "ms", geomean(medians)*sortSize/1e6)
	r.set("throughput_per_s", "1/s", float64(hybElems)/hybTotal.Seconds())
	r.report = append(r.report,
		fmt.Sprintf("sortgen-run: %d HybridSort/slices.Sort pairs of %d elements over %d shapes; %d Plan.Sorter batches of %d×n=%d",
			len(ratios), sortSize, len(st.shapes), len(fixed), fixedBatch, fixedN),
		fmt.Sprintf("sortgen-run: sort_ns_per_elem %.4f, sort_vs_slices %.4f, fixed_ns_per_elem %.4f",
			geomean(medians), geomean(ratios), median(fixed)))
	return nil
}

// timeSort copies in to buf, times sorter on it, and checks the result
// against slices.Sort's.
func timeSort(r *run, tr *tracer, sorter func([]int), in, want, buf []int, what string) time.Duration {
	copy(buf, in)
	d := tr.timed(what, -1, -1, func() { sorter(buf) })
	r.checkSorted(buf, want, what)
	return d
}

// timeFixed runs the fixed-n sorter over every array of the batch.
func timeFixed(r *run, sorter func([]int), st *sortState, buf []int) time.Duration {
	copy(buf, st.fixed)
	start := time.Now()
	for i := 0; i < len(buf); i += fixedN {
		sorter(buf[i : i+fixedN])
	}
	d := time.Since(start)
	r.checkSorted(buf, st.fixedWant, fmt.Sprintf("Plan.Sorter n=%d", fixedN))
	return d
}

// checkSorted counts one sort as attempted and fails it (and the run)
// when its output differs from slices.Sort's.
func (r *run) checkSorted(got, want []int, what string) {
	if slices.Equal(got, want) {
		r.attempt(nil)
		return
	}
	r.wrong(fmt.Errorf("%s: output differs from slices.Sort", what))
}

// tracedSort times sortgen's own layers: composing and emitting plans,
// the standalone n=3..5 kernels (the paper's §5.3 timing), and the
// comparator count of the fixed plan.
func tracedSort(r *run, st *sortState) error {
	tr := r.tr
	var compose, emit []float64
	for k := 0; k < 20; k++ {
		for _, n := range hotGenN {
			var p *sortgen.Plan
			var err error
			compose = append(compose, ms(tr.timed("sortgen.Compose", -1, n, func() { p, err = sortgen.Compose(n) })))
			if err != nil {
				return err
			}
			emit = append(emit, ms(tr.timed("sortgen.GoFile", -1, n, func() { _, err = p.GoFile(sortgen.EmitOptions{Elem: "int"}) })))
			if err != nil {
				return err
			}
		}
	}
	r.set("sortgen.compose_ms", "ms", median(compose))
	r.set("sortgen.emit_ms", "ms", median(emit))

	rng := rand.New(rand.NewSource(1)) // a fixed sample, whatever the run seed
	for _, n := range []int{3, 4, 5} {
		p, err := sortgen.Compose(n)
		if err != nil {
			return err
		}
		sorter := p.Sorter()
		in := make([]int, 1<<12*n)
		for i := range in {
			in[i] = rng.Intn(100)
		}
		want := slices.Clone(in)
		for i := 0; i < len(want); i += n {
			slices.Sort(want[i : i+n])
		}
		buf := make([]int, len(in))
		var per []float64
		for k := 0; k < 50; k++ {
			copy(buf, in)
			d := tr.timed(fmt.Sprint("sortgen.kernel.n", n), -1, k, func() {
				for i := 0; i < len(buf); i += n {
					sorter(buf[i : i+n])
				}
			})
			r.checkSorted(buf, want, fmt.Sprintf("kernel n=%d", n))
			per = append(per, float64(d)/float64(len(in)/n))
		}
		r.set(fmt.Sprint("sortgen.kernel_ns.n", n), "ns", median(per))
	}
	r.set("sortgen.comparators", "count", float64(st.plan.Comparators()))

	// HybridSort over slices.Sort on every shape, a few pairs each.
	buf := make([]int, sortSize)
	var ratios []float64
	for k := 0; k < 2*sortArrays; k++ {
		for si, shape := range st.shapes {
			in, want := st.arrays[si][k%sortArrays], st.want[si][k%sortArrays]
			hyb := timeSort(r, tr, sortgen.HybridSort, in, want, buf, "sortgen.HybridSort."+shape)
			ref := timeSort(r, tr, slices.Sort[[]int], in, want, buf, "slices.Sort."+shape)
			ratios = append(ratios, float64(hyb)/float64(ref))
		}
	}
	r.set("sortgen.vs_slices", "ratio", geomean(ratios))

	// Tracing overhead: HybridSort on the random shape, alternately with
	// and without a span around each call.
	var plain, traced time.Duration
	scratch := newTracer()
	for k := 0; k < 40; k++ {
		t := (*tracer)(nil)
		if k%2 == 1 {
			t = scratch
		}
		d := timeSort(r, t, sortgen.HybridSort, st.arrays[0][k%sortArrays], st.want[0][k%sortArrays], buf, "HybridSort")
		if t == nil {
			plain += d
		} else {
			traced += d
		}
	}
	r.set("bench.trace_overhead_pct.sortgen", "%", 100*float64(traced-plain)/float64(plain))
	return nil
}
