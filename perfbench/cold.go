package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"sortsynth/internal/backend"
	"sortsynth/internal/enum"
	"sortsynth/internal/isa"
	"sortsynth/internal/kcache"
	"sortsynth/internal/state"
	"sortsynth/internal/tables"
	"sortsynth/internal/universe"
	"sortsynth/internal/verify"
)

// optimal is the certified minimal kernel length L* (m = 1).
var optimal = map[string]map[int]int{"cmov": {3: 11, 4: 20}, "minmax": {3: 8, 4: 15}}

// coldSpec is one /v1/synthesize body of the cold spec set.
type coldSpec struct {
	ISA    string `json:"isa"`
	N      int    `json:"n"`
	MaxLen int    `json:"max_len"`
	Dup    bool   `json:"duplicate_safe"`
	Obj    string `json:"objective"`

	lstar int
	// timed specs run in every pass of the untraced run; the traced run
	// sends every spec once.
	timed bool
}

func (c coldSpec) String() string {
	return fmt.Sprintf("%s n=%d max_len=%d dup=%v %s", c.ISA, c.N, c.MaxLen, c.Dup, c.Obj)
}

func (c coldSpec) body() []byte {
	b, _ := json.Marshal(c) // a flat struct of basic types cannot fail
	return b
}

func (c coldSpec) set() *isa.Set {
	if c.ISA == "minmax" {
		return isa.NewMinMax(c.N, 1)
	}
	return isa.NewCmov(c.N, 1)
}

// enumOptions is ConfigBest plus the spec's fields, the only knobs the
// benchmark sets on the engine.
func (c coldSpec) enumOptions() enum.Options {
	obj, _ := enum.ParseObjective(c.Obj) // the spec set spells objectives correctly
	opt := enum.ConfigBest()
	opt.MaxLen = c.MaxLen
	opt.DuplicateSafe = c.Dup
	opt.Objective = obj
	return opt
}

// coldSpecs is the 26-spec set: n=3 is {cmov, minmax} × {permutation,
// duplicate-safe} × {shortest, fastest} × max_len {L*, L*+2}; n=4 is the
// same grid with shortest only, plus fastest at L* for cmov
// duplicate-safe and for minmax permutation. Five specs are untimed, so
// only the traced run sends them. Three n=4 specs together take about
// 30 s per pass on a 2-vCPU host, more than a run may spend. The two cmov
// n=3 duplicate-safe specs at max_len L* get a false 422 from the
// default server, and no run may fail operations; the traced run counts
// each false 422 in service.false_422.
func coldSpecs() []coldSpec {
	var out []coldSpec
	for _, n := range []int{3, 4} {
		objs := []string{"shortest", "fastest"}
		if n == 4 {
			objs = objs[:1]
		}
		for _, isaName := range []string{"cmov", "minmax"} {
			for _, dup := range []bool{false, true} {
				for _, obj := range objs {
					for _, slack := range []int{0, 2} {
						l := optimal[isaName][n]
						out = append(out, coldSpec{ISA: isaName, N: n, MaxLen: l + slack, Dup: dup, Obj: obj, lstar: l, timed: true})
					}
				}
			}
		}
	}
	out = append(out,
		coldSpec{ISA: "cmov", N: 4, MaxLen: 20, Dup: true, Obj: "fastest", lstar: 20},
		coldSpec{ISA: "minmax", N: 4, MaxLen: 15, Obj: "fastest", lstar: 15})
	for i := range out {
		c := out[i]
		if c.ISA == "cmov" && c.Dup && (c.N == 4 && c.MaxLen == 22 || c.N == 3 && c.MaxLen == c.lstar) {
			out[i].timed = false
		}
	}
	return out
}

// synthReply is the part of a /v1/synthesize reply the benchmark reads.
type synthReply struct {
	Kernel    string `json:"kernel"`
	Length    int    `json:"length"`
	Source    string `json:"source"`
	Cached    bool   `json:"cached"`
	Coalesced bool   `json:"coalesced"`
	Error     string `json:"error"`
	Stats     struct {
		Expanded int64   `json:"expanded"`
		SearchMS float64 `json:"search_ms"`
		ServedMS float64 `json:"served_ms"`
	} `json:"stats"`
}

// judgeSynth checks one synthesize answer. wrong is set when the program
// returned a kernel that is not a correct sorter; fail when it answered
// with anything but a kernel, including a refusal (422) for a spec whose
// budget admits the optimal kernel.
func judgeSynth(isaName string, n, maxLen, lstar int, dup bool, code int, body []byte) (rep synthReply, wrong, fail error) {
	what := fmt.Sprintf("%s n=%d max_len=%d dup=%v", isaName, n, maxLen, dup)
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, nil, fmt.Errorf("%s: status %d, unreadable reply: %v", what, code, err)
	}
	if code != http.StatusOK {
		if code == http.StatusUnprocessableEntity && maxLen >= lstar {
			return rep, nil, fmt.Errorf("%s: false 422 (%s); a kernel of length %d exists", what, rep.Error, lstar)
		}
		return rep, nil, fmt.Errorf("%s: status %d (%s)", what, code, rep.Error)
	}
	if err := checkKernel(rep.Kernel, isaName, n, rep.Length, dup); err != nil {
		return rep, fmt.Errorf("%s: wrong kernel: %v", what, err), nil
	}
	if rep.Length < lstar || rep.Length > maxLen {
		return rep, fmt.Errorf("%s: length %d outside [L*=%d, max_len]", what, rep.Length, lstar), nil
	}
	return rep, nil, nil
}

// coldMachines lists every (ISA, n, suite) the spec set searches.
func coldMachines(specs []coldSpec) []*state.Machine {
	seen := map[string]bool{}
	var out []*state.Machine
	for _, c := range specs {
		suite := state.SuitePermutations
		if c.Dup {
			suite = state.SuiteWeakOrders
		}
		m := state.NewMachineSuite(c.set(), suite)
		if k := fmt.Sprint(c.ISA, c.N, suite); !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	return out
}

// setupCold builds the spec set and warms the process-global distance
// tables, the lazy set-up a first request would otherwise pay.
func setupCold(r *run) (any, error) {
	specs := coldSpecs()
	for _, m := range coldMachines(specs) {
		r.tr.timed("tables.For", -1, -1, func() { tables.For(m) })
	}
	return specs, nil
}

// A round of cold-search is one pass over every timed spec, then one
// pass without the heavy spec and coldQuickPasses passes over the quick
// specs only. The heavy spec, cmov n=4 duplicate-safe, takes seconds;
// the other cmov n=4 specs about 0.5 s; the quick ones, every n=3 spec
// and minmax n=4, 1 to 30 ms. So the quick specs' medians get many
// samples for about a fifth more time per round.
const coldQuickPasses = 6

// heavy reports whether the spec is the one that takes seconds.
func (c coldSpec) heavy() bool { return c.ISA == "cmov" && c.N == 4 && c.Dup }

// quick reports whether the spec takes milliseconds, not seconds.
func (c coldSpec) quick() bool { return c.N == 3 || c.ISA == "minmax" }

func phaseCold(r *run, st any) error {
	specs := st.([]coldSpec)
	if r.traced {
		return tracedCold(r, specs)
	}
	var timed []coldSpec
	for _, c := range specs {
		if c.timed {
			timed = append(timed, c)
		}
	}
	// Each pass sends a subset of timed, given by positions in timed.
	var all, light, quick []int
	for i, c := range timed {
		all = append(all, i)
		if !c.heavy() {
			light = append(light, i)
		}
		if c.quick() {
			quick = append(quick, i)
		}
	}
	round := [][]int{all, light}
	for k := 0; k < coldQuickPasses; k++ {
		round = append(round, quick)
	}

	rng := rand.New(rand.NewSource(r.seed))
	lat := make([][]float64, len(timed))
	excess := make([][]float64, len(timed))
	start := time.Now()
	passes := 0
	for rounds := 0; rounds == 0 || time.Since(start) < r.dur; rounds++ {
		for _, idx := range round {
			sub := make([]coldSpec, len(idx))
			for j, i := range idx {
				sub[j] = timed[i]
			}
			times, lens, err := coldPass(r, sub, rng.Perm(len(sub)), fmt.Sprint("pass-", passes), nil)
			if err != nil {
				return err
			}
			passes++
			for j, i := range idx {
				lat[i] = append(lat[i], times[j])
				if lens[j] > 0 {
					excess[i] = append(excess[i], float64(lens[j]-timed[i].lstar))
				}
			}
			// A heavy search leaves a large heap behind; the next pass
			// starts from memory handed back to the OS, as the first does.
			debug.FreeOSMemory()
		}
	}
	var n3, n4 []float64
	var pass, lenExcess float64
	for i, c := range timed {
		m := median(lat[i])
		r.report = append(r.report, fmt.Sprintf("cold-search: %v: median %.3f ms of %d", c, m, len(lat[i])))
		pass += m
		if c.N == 3 {
			n3 = append(n3, m)
		} else {
			n4 = append(n4, m)
		}
		if len(excess[i]) > 0 {
			lenExcess += median(excess[i])
		}
	}
	// light_ms is cold_n3_ms, heavy_ms is cold_n4_ms, and throughput_per_s
	// is the spec set answered once, cold_pass_s, as specs per second.
	r.set("light_ms", "ms", geomean(n3))
	r.set("heavy_ms", "ms", geomean(n4))
	r.set("throughput_per_s", "1/s", float64(len(timed))/(pass/1000))
	r.report = append(r.report,
		fmt.Sprintf("cold-search: %d passes of %d timed specs (%d n=3, %d n=4)", passes, len(timed), len(n3), len(n4)),
		fmt.Sprintf("cold-search: cold_n3_ms %.4f, cold_n4_ms %.4f, cold_pass_s %.4f, kernel_len_excess %g",
			geomean(n3), geomean(n4), pass/1000, lenExcess))
	return nil
}

// coldPass sends every spec once, in the given order, to a fresh
// loopback server and returns each spec's served latency in ms and the
// returned length (0 when no kernel came back). With a tracer, each
// request is a root span named "serve.http".
func coldPass(r *run, specs []coldSpec, order []int, name string, tr *tracer) ([]float64, []int, error) {
	dir := filepath.Join(r.workDir, name)
	l, err := startServer(dir, 0, "", 1)
	if err != nil {
		return nil, nil, err
	}
	times := make([]float64, len(specs))
	lens := make([]int, len(specs))
	for _, i := range order {
		c := specs[i]
		// Every request starts from a collected heap, so no request pays
		// for collecting the previous one's garbage.
		runtime.GC()
		var code int
		var body []byte
		var derr error
		d := tr.timed("serve.http", -1, i, func() { code, body, derr = l.do("POST", "/v1/synthesize", c.body()) })
		times[i] = ms(d)
		if derr != nil {
			r.attempt(fmt.Errorf("%v: %v", c, derr))
			continue
		}
		rep, wrong, fail := judgeSynth(c.ISA, c.N, c.MaxLen, c.lstar, c.Dup, code, body)
		switch {
		case wrong != nil:
			r.wrong(wrong)
		case fail != nil:
			r.attempt(fail)
		default:
			r.attempt(nil)
			lens[i] = rep.Length
		}
	}
	if err := l.close(); err != nil {
		return nil, nil, err
	}
	return times, lens, os.RemoveAll(dir)
}

// tracedCold sends every spec through ServeHTTP on a fresh server (root
// span "serve"), then through the layers the service path calls, each
// timed as a child of a sibling root span "layers": cache key, universe
// lookup, cache get, enum search, verification, cache put. Timed n=4
// specs also run backend.Run with the enum adapter (root span
// "backend"); the untimed ones skip it, which keeps the traced run well
// inside its time limit on a slow host. Fastest specs time
// enum.RankPrograms over their optimal set.
func tracedCold(r *run, specs []coldSpec) error {
	tr := r.tr
	ctx := context.Background()
	tableTime, tableCount := tr.sum("tables.For")
	r.set("tables.build_ms", "ms", ms(tableTime))
	r.report = append(r.report, fmt.Sprintf("tables: %d built", tableCount))
	stateSample(r)

	// A universe baked for n=2 only: every cold spec misses it, as it
	// misses every tier on the cold path.
	uniPath := filepath.Join(r.workDir, "n2.universe")
	if _, _, err := universe.Bake(ctx, uniPath, nil, universe.Options{MinN: 2, MaxN: 2, Backends: []string{"enum"}}); err != nil {
		return err
	}
	uni, err := universe.Open(uniPath)
	if err != nil {
		return err
	}
	defer uni.Close()

	type counters struct{ searchMS, expanded, generated, deduped, pruned, cut, served, direct float64 }
	var per [5]counters // indexed by n
	var rerank, servedMS, searchMS, verifyN, lenExcess, false422 float64
	var allocN4 uint64
	var backendMS, backendNodes, directN4 float64
	var rankTime, verifyTime time.Duration
	rng := rand.New(rand.NewSource(r.seed))
	for _, i := range rng.Perm(len(specs)) {
		c := specs[i]
		set := c.set()
		opt := c.enumOptions()

		// The service path, end to end, with no TCP.
		l, err := startServer(filepath.Join(r.workDir, fmt.Sprint("srv-", i)), 0, "", 1)
		if err != nil {
			return err
		}
		var code int
		var body []byte
		tr.timed("serve", -1, i, func() { code, body = direct(l.srv, "POST", "/v1/synthesize", c.body()) })
		if err := l.close(); err != nil {
			return err
		}
		rep, wrong, fail := judgeSynth(c.ISA, c.N, c.MaxLen, c.lstar, c.Dup, code, body)
		switch {
		case wrong != nil:
			r.wrong(wrong)
		case code == http.StatusUnprocessableEntity && c.MaxLen >= c.lstar:
			// A false 422 is counted in service.false_422, not in failed:
			// the traced run sends the specs the server refuses today.
			false422++
			fmt.Fprintln(os.Stderr, "counted in service.false_422:", fail)
		case fail != nil:
			r.attempt(fail)
		default:
			r.attempt(nil)
			servedMS += rep.Stats.ServedMS
			searchMS += rep.Stats.SearchMS
			per[c.N].served += float64(rep.Stats.Expanded)
			lenExcess += float64(rep.Length - c.lstar)
		}

		// The same spec, layer by layer.
		cache, err := kcache.New(filepath.Join(r.workDir, fmt.Sprint("layers-", i)), 0)
		if err != nil {
			return err
		}
		root := tr.begin("layers", -1, i)
		var key kcache.Key
		tr.timed("kcache.KeyFor", root, i, func() { key = kcache.KeyFor(set, opt); _ = key.Hash() })
		tr.timed("universe.Lookup", root, i, func() { uni.Lookup(key) })
		tr.timed("kcache.Get", root, i, func() { cache.Get(key) })
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var res *enum.Result
		d := tr.timed("enum.RunContext", root, i, func() { res = enum.RunContext(ctx, set, opt) })
		runtime.ReadMemStats(&ms1)
		pc := &per[c.N]
		pc.searchMS += ms(d)
		pc.expanded += float64(res.Expanded)
		pc.generated += float64(res.Generated)
		pc.deduped += float64(res.Deduped)
		pc.pruned += float64(res.Pruned)
		pc.cut += float64(res.CutCount)
		if rep.Source != "" {
			pc.direct += float64(res.Expanded) // only specs the server answered
		}
		rerank += float64(res.RerankCandidates)
		if c.N == 4 {
			allocN4 += ms1.TotalAlloc - ms0.TotalAlloc
		}
		if res.Program != nil {
			verifyTime += tr.timed("verify", root, i, func() {
				if c.Dup {
					verify.SortsDuplicates(set, res.Program)
				} else {
					verify.Sorts(set, res.Program)
				}
			})
			verifyN++
			entry := &kcache.Entry{Backend: "enum", Program: res.Program.Format(set.N), Length: res.Length}
			tr.timed("kcache.Put", root, i, func() { cache.Put(key, entry) })
		}
		tr.end(root)

		if c.N == 4 && c.timed {
			var bres *backend.Result
			var berr error
			d := tr.timed("backend", -1, i, func() {
				bres, berr = backend.Run(ctx, backend.NewEnum(enum.ConfigBest()), set,
					backend.Spec{MaxLen: c.MaxLen, DuplicateSafe: c.Dup, Objective: opt.Objective})
			})
			if berr != nil {
				return fmt.Errorf("backend.Run %v: %w", c, berr)
			}
			backendMS += ms(d)
			backendNodes += float64(bres.Stats.Nodes)
			directN4 += float64(res.Expanded)
		}
		if opt.Objective != enum.ObjectiveShortest && res.RerankCandidates > 0 {
			all := opt
			all.Objective = enum.ObjectiveShortest
			all.AllSolutions = true
			all.MaxSolutions = res.RerankCandidates
			progs := enum.RunContext(ctx, set, all).Programs
			var rerr error
			rankTime += tr.timed("enum.RankPrograms", -1, i, func() {
				_, _, rerr = enum.RankPrograms(set, progs, opt.Objective, "")
			})
			if rerr != nil {
				return rerr
			}
		}
	}

	r.set("enum.search_ms.n3", "ms", per[3].searchMS)
	r.set("enum.search_ms.n4", "ms", per[4].searchMS)
	for _, n := range []int{3, 4} {
		r.set(fmt.Sprint("enum.expanded.n", n), "count", per[n].expanded)
		r.set(fmt.Sprint("enum.generated.n", n), "count", per[n].generated)
	}
	r.set("enum.deduped.n4", "count", per[4].deduped)
	r.set("enum.pruned.n4", "count", per[4].pruned)
	r.set("enum.cut.n4", "count", per[4].cut)
	r.set("enum.ns_per_generated.n4", "ns", per[4].searchMS*1e6/per[4].generated)
	r.set("enum.rerank_candidates", "count", rerank)
	r.set("enum.rank_ms", "ms", ms(rankTime))
	r.set("enum.alloc_mb.n4", "MB", float64(allocN4)/(1<<20))
	r.set("enum.overexpansion", "ratio", per[4].served/per[4].direct)
	r.set("backend.run_ms.n4", "ms", backendMS)
	r.set("backend.probe_ratio", "ratio", backendNodes/directN4)
	r.set("verify.check_us", "us", us(verifyTime)/verifyN)
	r.set("service.search_share", "ratio", searchMS/servedMS)
	r.set("service.kernel_len_excess", "count", lenExcess)
	r.set("service.false_422", "count", false422)

	// How much of ServeHTTP the layer spans explain, per n.
	serve := map[int]time.Duration{}
	for _, s := range tr.spansNamed("serve") {
		serve[s.Req] += s.dur()
	}
	layers := tr.childSum("layers")
	explained := map[int]time.Duration{}
	for idx, d := range layers {
		explained[tr.spanAt(idx).Req] += d
	}
	for _, n := range []int{3, 4} {
		var sv, ex time.Duration
		for i, c := range specs {
			if c.N == n {
				sv += serve[i]
				ex += explained[i]
			}
		}
		r.set(fmt.Sprint("service.explained.n", n), "ratio", float64(ex)/float64(sv))
		r.set(fmt.Sprint("service.self_ms.n", n), "ms", ms(sv-ex))
	}
	return traceOverheadCold(r, specs)
}

// traceOverheadCold times the timed n=3 specs over loopback HTTP twice
// untraced and twice traced, interleaved, and reports the traced run's
// extra time in percent.
func traceOverheadCold(r *run, specs []coldSpec) error {
	var n3 []coldSpec
	for _, c := range specs {
		if c.N == 3 && c.timed {
			n3 = append(n3, c)
		}
	}
	order := make([]int, len(n3))
	for i := range order {
		order[i] = i
	}
	var plain, traced float64
	scratch := newTracer()
	for k := 0; k < 4; k++ {
		tr := (*tracer)(nil)
		if k%2 == 1 {
			tr = scratch
		}
		times, _, err := coldPass(r, n3, order, fmt.Sprint("overhead-", k), tr)
		if err != nil {
			return err
		}
		for _, t := range times {
			if tr == nil {
				plain += t
			} else {
				traced += t
			}
		}
	}
	r.set("bench.trace_overhead_pct.cold", "%", 100*(traced-plain)/plain)
	return nil
}

// stateSample times the state layer on a fixed sample of reachable cmov
// n=4 weak-order states: ApplyRaw (Apply without its sort), Canonicalize
// and HashKey, in ns per call.
func stateSample(r *run) {
	set := isa.NewCmov(4, 1)
	m := state.NewMachineSuite(set, state.SuiteWeakOrders)
	instrs := set.Instrs()
	rng := rand.New(rand.NewSource(1)) // a fixed sample, whatever the run seed
	var states []state.State
	for len(states) < 256 {
		s := m.Initial().Clone()
		for d := rng.Intn(14); d > 0; d-- {
			s = m.Apply(nil, s, instrs[rng.Intn(len(instrs))])
		}
		states = append(states, s)
	}
	var raws []state.State
	var buf state.State
	applyCalls := 0
	applyTime := r.tr.timed("state.ApplyRaw", -1, -1, func() {
		for _, s := range states {
			for _, in := range instrs {
				buf = m.ApplyRaw(buf, s, in)
				applyCalls++
			}
		}
	})
	for _, s := range states {
		for _, in := range instrs[:8] {
			raws = append(raws, m.ApplyRaw(nil, s, in))
		}
	}
	canonTime := r.tr.timed("state.Canonicalize", -1, -1, func() {
		for i := range raws {
			state.Canonicalize(&raws[i])
		}
	})
	var sink uint64
	hashTime := r.tr.timed("state.HashKey", -1, -1, func() {
		for k := 0; k < 16; k++ {
			for _, s := range states {
				sink += state.HashKey(s).Lo
			}
		}
	})
	_ = sink
	r.set("state.apply_ns", "ns", float64(applyTime)/float64(applyCalls))
	r.set("state.canon_ns", "ns", float64(canonTime)/float64(len(raws)))
	r.set("state.hash_ns", "ns", float64(hashTime)/float64(16*len(states)))
}
