package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sortsynth/internal/enum"
	"sortsynth/internal/kcache"
	"sortsynth/internal/universe"
)

// hot-serve traffic is a designed synthetic mix, not observed traffic:
// the repository has no traffic record. Each block of 100 requests holds
// 40 universe hits, 28 kcache L1 hits, 20 kcache L2 hits, 5 batches of 8
// hits, 5 GET /v1/sortgen, and one batch holding a fresh n=3 spec twice.
// The shares and the rate are chosen so that every tier has enough
// samples for a steady median in one run; README.md gives the reason for
// each. The server resolves batch items concurrently, so the twins
// coalesce into one search while they hold one connection, not both.
const (
	hotRate     = 125 // requests per second, open loop
	hotBlock    = 100
	hotUniverse = 40
	hotL1       = 28
	hotL2       = 20
	hotBatch    = 5
	hotGen      = 5
	hotBatchLen = 8
	// hotCacheCap is the server's memory-tier (L1) capacity. The L1 and
	// sortgen keys (9) are each used at least once per block, and a block
	// puts at most 26 other keys into memory (25 L2 promotions and one
	// miss), so at most 8 + 52 = 60 keys come between two uses of one of
	// them: it is never evicted. The L2 set is round-robin over 96 keys,
	// so 95 others come between two uses of an L2 key: it is always
	// evicted and read from disk.
	hotCacheCap = 80
)

// sortgen lengths requested by GET /v1/sortgen.
var hotGenN = []int{8, 13, 16, 24, 32}

// hotSpec is one /v1/synthesize body with the tier designed to answer it.
type hotSpec struct {
	ISA    string `json:"isa"`
	N      int    `json:"n"`
	MaxLen int    `json:"max_len"`
	Dup    bool   `json:"duplicate_safe,omitempty"`
	Obj    string `json:"objective,omitempty"`
	Config string `json:"config,omitempty"`

	tier string // "universe", "l1", "l2" or "miss"
	js   []byte // the encoded body, made once at set-up
}

func (h hotSpec) body() []byte { return h.js }

// encode stores each spec's body, so no request pays for encoding it.
func encode(specs []hotSpec) {
	for i := range specs {
		specs[i].js, _ = json.Marshal(specs[i]) // a flat struct of basic types cannot fail
	}
}

// source is the reply's source field the designed tier must produce.
func (h hotSpec) source() string {
	switch h.tier {
	case "universe":
		return "universe"
	case "miss":
		return "search"
	}
	return "cache"
}

// hotJob is one scheduled request, encoded before the run starts.
type hotJob struct {
	kind   string // "hit", "batch", "gen" or "miss"
	due    time.Duration
	specs  []hotSpec // one for hit, two for miss, hotBatchLen for batch
	genN   int
	method string
	path   string
	body   []byte
}

type hotState struct {
	l                 *loopback
	uniPath           string
	cacheDir          string
	bake              time.Duration
	uni, l1, l2, miss []hotSpec
	jobs              []hotJob
	l2Order           []int
	l2Next            int              // the next L2 position after the open loop
	want              map[string]int64 // designed /metrics deltas of the open loop
	checked           *kernelMemo
}

// bakeOptions is the L0 store: every enum spec for n=2..3 of both ISAs,
// budgets L*±2, shortest and fastest, both suites.
var bakeOptions = universe.Options{MinN: 2, MaxN: 3, Backends: []string{"enum"}, DuplicateSafe: true}

func setupHot(r *run) (any, error) {
	st := &hotState{
		uniPath:  filepath.Join(r.workDir, "hot.universe"),
		cacheDir: filepath.Join(r.workDir, "hot-kcache"),
		checked:  newKernelMemo(),
	}
	var berr error
	st.bake = r.tr.timed("universe.Bake", -1, -1, func() {
		_, _, berr = universe.Bake(context.Background(), st.uniPath, nil, bakeOptions)
	})
	if berr != nil {
		return nil, berr
	}
	for _, sp := range universe.EnumerateSpecs(bakeOptions) {
		if sp.Budget < optimalM1(sp.ISA, sp.N) {
			continue // baked refutations answer 422 by design; serve only kernels
		}
		obj := ""
		if sp.Objective != enum.ObjectiveShortest {
			obj = sp.Objective.String()
		}
		st.uni = append(st.uni, hotSpec{ISA: sp.ISA, N: sp.N, MaxLen: sp.Budget, Dup: sp.DuplicateSafe, Obj: obj, tier: "universe"})
	}
	// L2: 96 minmax n=3 specs under two non-default configs ("dijkstra"
	// keys the same as "base"); L1: minmax n=4.
	for _, cfg := range []string{"base", "distmax"} {
		for _, dup := range []bool{false, true} {
			for l := 8; l < 32; l++ {
				st.l2 = append(st.l2, hotSpec{ISA: "minmax", N: 3, MaxLen: l, Dup: dup, Config: cfg, tier: "l2"})
			}
		}
	}
	for l := 15; l < 19; l++ {
		st.l1 = append(st.l1, hotSpec{ISA: "minmax", N: 4, MaxLen: l, tier: "l1"})
	}
	// Misses: fresh cmov n=3 duplicate-safe specs above the baked budgets
	// (L*+2 = 13), all shortest so that every miss costs the same. Each
	// search runs long enough (about 20 ms) for its twin to join it.
	for l := 14; l <= enum.MaxDepth; l++ {
		st.miss = append(st.miss, hotSpec{ISA: "cmov", N: 3, MaxLen: l, Dup: true, tier: "miss"})
	}
	for _, specs := range [][]hotSpec{st.uni, st.l1, st.l2, st.miss} {
		encode(specs)
	}
	if err := st.prefill(); err != nil {
		return nil, err
	}

	// The serving server starts with an empty memory tier. One use of
	// each L1 and sortgen key promotes it from disk; the L2 keys stay on
	// disk until the run reads them.
	l, err := startServer(st.cacheDir, hotCacheCap, st.uniPath, runtime.NumCPU())
	if err != nil {
		return nil, err
	}
	st.l = l
	for _, sp := range st.l1 {
		code, body, err := l.do("POST", "/v1/synthesize", sp.body())
		if err != nil {
			return nil, err
		}
		if _, wrong, fail := st.judge(sp, code, body); wrong != nil || fail != nil {
			return nil, fmt.Errorf("warm-up: %v%v", wrong, fail)
		}
	}
	for _, n := range hotGenN {
		code, body, err := l.do("GET", fmt.Sprintf("/v1/sortgen?n=%d", n), nil)
		if wrong, fail := judgeGen(n, code, body, err); wrong != nil || fail != nil {
			return nil, fmt.Errorf("warm-up: %v%v", wrong, fail)
		}
	}
	st.schedule(r)
	return st, nil
}

// prefill answers every L1 and L2 spec and every sortgen length once, on
// a server of its own, so that each is on disk when the run starts.
func (st *hotState) prefill() error {
	l, err := startServer(st.cacheDir, hotCacheCap, st.uniPath, 1)
	if err != nil {
		return err
	}
	defer l.close()
	for _, sp := range append(append([]hotSpec{}, st.l2...), st.l1...) {
		code, body, err := l.do("POST", "/v1/synthesize", sp.body())
		if err != nil {
			return err
		}
		sp.tier = "miss" // a prefill request is answered by a search
		if _, wrong, fail := st.judge(sp, code, body); wrong != nil || fail != nil {
			return fmt.Errorf("prefill: %v%v", wrong, fail)
		}
	}
	for _, n := range hotGenN {
		if code, body, err := l.do("GET", fmt.Sprintf("/v1/sortgen?n=%d", n), nil); err != nil || code != http.StatusOK {
			return fmt.Errorf("prefill sortgen n=%d: status %d %s %v", n, code, body, err)
		}
	}
	return nil
}

// optimalM1 is L* for m = 1 (n = 2 included).
func optimalM1(isaName string, n int) int {
	if n == 2 {
		return map[string]int{"cmov": 4, "minmax": 3}[isaName]
	}
	return optimal[isaName][n]
}

// schedule builds the open-loop request list: every block of hotBlock
// requests holds the same count of each kind (so every run sends the
// same mix), shuffled within the block by the seed, due at a fixed rate.
// L1, L2 and sortgen keys are taken round-robin (L2 in a seeded order),
// so each L1 and sortgen key comes back within two blocks and each L2
// key only after 95 others: the bounds hotCacheCap is sized for.
func (st *hotState) schedule(r *run) {
	rng := rand.New(rand.NewSource(r.seed))
	// The open loop takes 2/3 of the run; in the traced sweep, which also
	// runs the other workloads' layers, 1/3.
	share := 2.0 / 3
	if r.traced {
		share = 1.0 / 3
	}
	blocks := int(r.dur.Seconds()*share*hotRate) / hotBlock
	mix := []struct {
		kind  string
		count int
	}{{"universe", hotUniverse}, {"l1", hotL1}, {"l2", hotL2}, {"batch", hotBatch}, {"gen", hotGen}, {"miss", 1}}
	var kinds []string
	for b := 0; b < blocks; b++ {
		block := make([]string, 0, hotBlock+1)
		for _, m := range mix {
			for i := 0; i < m.count; i++ {
				block = append(block, m.kind)
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		kinds = append(kinds, block...)
	}
	st.l2Order = rng.Perm(len(st.l2))
	missOrder := rng.Perm(len(st.miss))
	l1Next, missNext, genNext := 0, 0, 0
	st.want = map[string]int64{}
	hit := func(tier string) hotSpec {
		switch tier {
		case "universe":
			st.want["universe_hits"]++
			return st.uni[rng.Intn(len(st.uni))]
		case "l1":
			st.want["cache_hits"]++
			st.want["mem_hits"]++
			sp := st.l1[l1Next%len(st.l1)]
			l1Next++
			return sp
		}
		st.want["cache_hits"]++
		st.want["disk_hits"]++
		sp := st.l2[st.l2Order[st.l2Next%len(st.l2Order)]]
		st.l2Next++
		return sp
	}
	interval := time.Second / hotRate
	for slot, k := range kinds {
		j := hotJob{kind: k, due: time.Duration(slot) * interval, method: "POST", path: "/v1/synthesize/batch"}
		switch k {
		case "batch":
			// A fixed tier split per batch keeps the /metrics deltas
			// independent of the seed.
			for _, i := range rng.Perm(hotBatchLen) {
				j.specs = append(j.specs, hit([hotBatchLen]string{"universe", "universe", "universe", "universe", "universe", "l1", "l1", "l2"}[i]))
			}
		case "gen":
			j.genN = hotGenN[genNext%len(hotGenN)]
			j.method, j.path = "GET", fmt.Sprintf("/v1/sortgen?n=%d", j.genN)
			genNext++
			st.want["cache_hits"]++
			st.want["mem_hits"]++
		case "miss":
			sp := st.miss[missOrder[missNext%len(missOrder)]]
			missNext++
			j.specs = []hotSpec{sp, sp}
			st.want["searches_started"]++
			st.want["coalesced"]++
		default:
			j.kind = "hit"
			j.specs = []hotSpec{hit(k)}
			j.path = "/v1/synthesize"
			j.body = j.specs[0].body()
		}
		if j.kind == "batch" || j.kind == "miss" {
			j.body = batchBody(j.specs)
		}
		st.jobs = append(st.jobs, j)
	}
}

// batchBody encodes a /v1/synthesize/batch request.
func batchBody(specs []hotSpec) []byte {
	var req struct {
		Specs []json.RawMessage `json:"specs"`
	}
	for _, sp := range specs {
		req.Specs = append(req.Specs, sp.body())
	}
	b, _ := json.Marshal(req) // raw messages of valid JSON
	return b
}

// kernelMemo remembers kernels already checked per spec, so a repeated
// answer is compared by its bytes and only a new answer is re-run.
type kernelMemo struct {
	mu sync.Mutex
	ok map[string]bool
}

func newKernelMemo() *kernelMemo { return &kernelMemo{ok: map[string]bool{}} }

func (k *kernelMemo) check(sp hotSpec, rep synthReply) error {
	key := string(sp.body()) + "\x00" + rep.Kernel
	k.mu.Lock()
	ok := k.ok[key]
	k.mu.Unlock()
	if ok {
		return nil
	}
	if err := checkKernel(rep.Kernel, sp.ISA, sp.N, rep.Length, sp.Dup); err != nil {
		return err
	}
	k.mu.Lock()
	k.ok[key] = true
	k.mu.Unlock()
	return nil
}

// judge checks a synthesize answer and the tier that gave it: a wrong
// kernel or a tier other than the designed one is wrong.
func (st *hotState) judge(sp hotSpec, code int, body []byte) (rep synthReply, wrong, fail error) {
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, nil, fmt.Errorf("%s: status %d, unreadable reply: %v", sp.body(), code, err)
	}
	if code != http.StatusOK {
		return rep, nil, fmt.Errorf("%s: status %d (%s)", sp.body(), code, rep.Error)
	}
	if err := st.checked.check(sp, rep); err != nil {
		return rep, fmt.Errorf("%s: wrong kernel: %v", sp.body(), err), nil
	}
	if rep.Source != sp.source() {
		return rep, fmt.Errorf("%s answered from %q, designed for %q", sp.body(), rep.Source, sp.source()), nil
	}
	return rep, nil, nil
}

// judgeGen checks a GET /v1/sortgen answer: it must be the cached sorter
// for n.
func judgeGen(n, code int, body []byte, err error) (wrong, fail error) {
	if err != nil {
		return nil, err
	}
	var rep struct {
		N      int  `json:"n"`
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(body, &rep); err != nil || code != http.StatusOK || rep.N != n {
		return nil, fmt.Errorf("sortgen n=%d: status %d: %.200s", n, code, body)
	}
	if !rep.Cached {
		return fmt.Errorf("sortgen n=%d was not a cache hit", n), nil
	}
	return nil, nil
}

// sample is one completed request of the open loop.
type sample struct {
	kind      string
	tier      string        // the designed tier of a single hit
	latency   time.Duration // from due to reply read
	late      time.Duration // from due to send
	coalesced bool
	waitMS    float64 // served_ms − search_ms, for misses
}

func phaseHot(r *run, s any) error {
	st := s.(*hotState)
	defer st.l.close()
	conns := runtime.NumCPU()
	before, err := st.counters()
	if err != nil {
		return err
	}
	runtime.GC() // start from a collected heap, as the closed loop does
	samples := st.openLoop(r, conns, r.tr)
	after, err := st.counters()
	if err != nil {
		return err
	}
	st.checkCounters(r, "open loop", []string{"universe_hits", "cache_hits", "mem_hits", "disk_hits", "searches_started", "coalesced"},
		before, after, st.want)

	var hits, batch, miss, gen, late, wait []float64
	tierHits := map[string][]float64{}
	pairsCoalesced := 0
	for _, x := range samples {
		v := ms(x.latency)
		late = append(late, ms(x.late))
		switch x.kind {
		case "hit":
			hits = append(hits, v)
			tierHits[x.tier] = append(tierHits[x.tier], v)
		case "batch":
			batch = append(batch, v)
		case "gen":
			gen = append(gen, v)
		case "miss":
			miss = append(miss, v)
			if x.coalesced {
				pairsCoalesced++
				wait = append(wait, x.waitMS)
			}
		}
	}
	if want := int(st.want["coalesced"]); pairsCoalesced != want {
		r.wrong(fmt.Errorf("%d of %d miss pairs coalesced", pairsCoalesced, want))
	}
	r.report = append(r.report, fmt.Sprintf("hot-serve: %d requests at %d/s on %d connections (%d hits, %d batches, %d misses, %d sortgen)",
		len(samples), hotRate, conns, len(hits), len(batch), len(miss), len(gen)))
	if r.traced {
		r.set("bench.late_ms_p99", "ms", percentile(late, 99))
		r.set("bench.hit_ms_p90", "ms", percentile(hits, 90))
		r.set("bench.hit_ms_p99", "ms", percentile(hits, 99))
		for _, tier := range []string{"universe", "l1", "l2"} {
			r.set("bench.hit_ms_p50."+tier, "ms", median(tierHits[tier]))
		}
		r.set("service.miss_wait_ms", "ms", median(wait))
		for _, k := range []string{"coalesced", "searches_started", "cache_hits", "universe_hits", "mem_hits", "disk_hits"} {
			r.set("service."+k, "count", float64(after[k]-before[k]))
		}
		return tracedHot(r, st)
	}
	// light_ms weighs every single-hit class alike, whatever its share of
	// the mix; heavy_ms is the batches of 8 hits. The misses are checked
	// and printed but not gated: each is a parallel search on every core,
	// which doubled in time when the host lent a core away for a minute,
	// and cold-search gates the same n=3 searches.
	light := []float64{median(tierHits["universe"]), median(tierHits["l1"]), median(tierHits["l2"]), median(gen)}
	r.set("light_ms", "ms", geomean(light))
	r.set("heavy_ms", "ms", median(batch))
	runtime.GC()
	rps, err := st.closedLoop(r, conns, r.dur/3)
	if err != nil {
		return err
	}
	r.set("throughput_per_s", "1/s", rps)
	r.report = append(r.report, fmt.Sprintf(
		"hot-serve: hit_ms_p50 %.4f (universe %.4f, l1 %.4f, l2 %.4f), hit_ms_p90 %.4f, batch_ms_p50 %.4f, gen_ms_p50 %.4f, miss_ms_p50 %.4f, serve_rps %.1f",
		median(hits), light[0], light[1], light[2], percentile(hits, 90), median(batch), light[3], median(miss), rps))
	return nil
}

// checkCounters fails the run when one of the /metrics counters keys
// moved by other than the designed amount.
func (st *hotState) checkCounters(r *run, what string, keys []string, before, after, want map[string]int64) {
	for _, k := range keys {
		if got := after[k] - before[k]; got != want[k] {
			r.wrong(fmt.Errorf("%s: /metrics %s moved by %d, the designed mix needs %d", what, k, got, want[k]))
		}
	}
}

// counters reads the /metrics counters the designed mix fixes.
func (st *hotState) counters() (map[string]int64, error) {
	code, body, err := st.l.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d: %v", code, err)
	}
	var m struct {
		Cache struct {
			Hits     int64
			MemHits  int64 `json:"mem_hits"`
			DiskHits int64 `json:"disk_hits"`
		}
		Universe struct{ Hits int64 }
		Searches struct{ Started, Coalesced int64 }
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, err
	}
	return map[string]int64{
		"cache_hits": m.Cache.Hits, "mem_hits": m.Cache.MemHits, "disk_hits": m.Cache.DiskHits,
		"universe_hits":    m.Universe.Hits,
		"searches_started": m.Searches.Started, "coalesced": m.Searches.Coalesced,
	}, nil
}

// openLoop sends the schedule on conns connections, each request at its
// due time whatever the state of earlier ones, and times each from when
// it was due until its reply has been read; the answer is judged after
// the clock stops. With a tracer each request is a root span.
func (st *hotState) openLoop(r *run, conns int, tr *tracer) []sample {
	jobs := make(chan int)
	out := make([]sample, len(st.jobs))
	fails := make([][]error, conns)
	wrongs := make([][]error, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range jobs {
				j := st.jobs[i]
				waitUntil(start.Add(j.due))
				sent := time.Since(start)
				span := tr.begin("request."+j.kind, -1, i)
				code, body, err := st.l.do(j.method, j.path, j.body)
				tr.end(span)
				latency := time.Since(start) - j.due
				wrong, fail, x := st.judgeJob(j, code, body, err)
				x.latency = latency
				x.late = sent - j.due
				out[i] = x
				if wrong != nil {
					wrongs[w] = append(wrongs[w], wrong)
				}
				fails[w] = append(fails[w], fail)
			}
		}(w)
	}
	for i := range st.jobs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for w := range fails {
		for _, e := range wrongs[w] {
			r.wrong(e)
		}
		for _, e := range fails[w] {
			r.attempt(e)
		}
	}
	return out
}

// waitUntil returns at t. Timers can fire a millisecond late when the
// process is idle, so it sleeps to just short of t and yields the
// processor until t arrives.
func waitUntil(t time.Time) {
	if d := time.Until(t) - 1500*time.Microsecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// judgeJob checks the reply to one job. wrong reports a wrong kernel or
// a tier other than the designed one.
func (st *hotState) judgeJob(j hotJob, code int, body []byte, err error) (wrong, fail error, x sample) {
	x.kind = j.kind
	if err != nil {
		return nil, err, x
	}
	switch j.kind {
	case "gen":
		wrong, fail = judgeGen(j.genN, code, body, nil)
		return wrong, fail, x
	case "batch", "miss":
		var rep struct {
			Results []struct {
				Status   int             `json:"status"`
				Response json.RawMessage `json:"response"`
			} `json:"results"`
		}
		if err := json.Unmarshal(body, &rep); err != nil || code != http.StatusOK || len(rep.Results) != len(j.specs) {
			return nil, fmt.Errorf("batch: status %d: %.200s", code, body), x
		}
		for i, it := range rep.Results {
			sr, wrong, fail := st.judge(j.specs[i], it.Status, it.Response)
			if wrong != nil || fail != nil {
				return wrong, fail, x
			}
			if sr.Coalesced {
				x.coalesced = true
				x.waitMS = sr.Stats.ServedMS - sr.Stats.SearchMS
			}
		}
		return nil, nil, x
	}
	x.tier = j.specs[0].tier
	_, wrong, fail = st.judge(j.specs[0], code, body)
	return wrong, fail, x
}

// closedLoop runs conns clients, each sending its next hit as soon as the
// previous reply is read, for d of sending time, and returns completed
// requests per second. The hits follow the open loop's tier shares in a
// seeded order, with L1 and L2 keys round-robin as in the open loop. The
// universe and cache hit counts must match exactly. The L1/L2 split is
// not checked here: the clients share one key sequence, so a client that
// stalls for a few milliseconds can be overtaken by the other on an L2
// key's next use, which then finds it in memory. The clients stop every
// closedSegment to judge the replies they read, off the clock.
func (st *hotState) closedLoop(r *run, conns int, d time.Duration) (float64, error) {
	const closedSegment = 200 * time.Millisecond
	rng := rand.New(rand.NewSource(r.seed + 1))
	var pattern []string
	for _, m := range []struct {
		kind  string
		count int
	}{{"universe", hotUniverse}, {"l1", hotL1}, {"l2", hotL2}} {
		for i := 0; i < m.count; i++ {
			pattern = append(pattern, m.kind)
		}
	}
	rng.Shuffle(len(pattern), func(i, j int) { pattern[i], pattern[j] = pattern[j], pattern[i] })
	// ordinal[p] is how many earlier positions of the pattern have p's kind.
	ordinal := make([]int, len(pattern))
	seen := map[string]int{}
	for p, k := range pattern {
		ordinal[p] = seen[k]
		seen[k]++
	}
	// pick returns the i-th request of the sequence. L2 continues the open
	// loop's order, so its first key is the least recently used one.
	pick := func(i int) hotSpec {
		p := i % len(pattern)
		k := i/len(pattern)*seen[pattern[p]] + ordinal[p]
		switch pattern[p] {
		case "universe":
			return st.uni[k%len(st.uni)]
		case "l1":
			return st.l1[k%len(st.l1)]
		}
		return st.l2[st.l2Order[(st.l2Next+k)%len(st.l2Order)]]
	}

	type reply struct {
		sp   hotSpec
		code int
		body []byte
		err  error
	}
	before, err := st.counters()
	if err != nil {
		return 0, err
	}
	var next atomic.Int64
	var elapsed time.Duration
	replies := make([][]reply, conns)
	total := 0
	for elapsed < d {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < conns; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for time.Since(start) < closedSegment {
					sp := pick(int(next.Add(1) - 1))
					code, body, err := st.l.do("POST", "/v1/synthesize", sp.body())
					replies[w] = append(replies[w], reply{sp, code, body, err})
				}
			}(w)
		}
		wg.Wait()
		elapsed += time.Since(start)
		for w := range replies {
			for _, x := range replies[w] {
				if x.err != nil {
					r.attempt(x.err)
					continue
				}
				if _, wrong, fail := st.judge(x.sp, x.code, x.body); wrong != nil {
					r.wrong(wrong)
				} else {
					r.attempt(fail)
				}
			}
			total += len(replies[w])
			replies[w] = replies[w][:0]
		}
	}
	after, err := st.counters()
	if err != nil {
		return 0, err
	}
	want := map[string]int64{}
	for i := 0; i < total; i++ {
		if pick(i).tier == "universe" {
			want["universe_hits"]++
		} else {
			want["cache_hits"]++
		}
	}
	st.checkCounters(r, "closed loop", []string{"universe_hits", "cache_hits", "searches_started", "coalesced"}, before, after, want)
	return float64(total) / elapsed.Seconds(), nil
}

func tracedHot(r *run, st *hotState) error {
	tr := r.tr
	r.set("universe.bake_s", "s", st.bake.Seconds())
	var opens []float64
	for i := 0; i < 20; i++ {
		var err error
		var s *universe.Store
		d := tr.timed("universe.Open", -1, -1, func() { s, err = universe.Open(st.uniPath) })
		if err != nil {
			return err
		}
		s.Close()
		opens = append(opens, ms(d))
	}
	r.set("universe.open_ms", "ms", median(opens))

	keyOf := func(sp hotSpec) kcache.Key {
		set := coldSpec{ISA: sp.ISA, N: sp.N}.set()
		opt := coldSpec{ISA: sp.ISA, N: sp.N, MaxLen: sp.MaxLen, Dup: sp.Dup, Obj: sp.Obj}.enumOptions()
		return kcache.KeyFor(set, opt)
	}
	const rounds = 200
	var keyT []float64
	for k := 0; k < rounds; k++ {
		for _, sp := range st.uni {
			keyT = append(keyT, us(tr.timed("kcache.KeyFor", -1, -1, func() { _ = keyOf(sp).Hash() })))
		}
	}
	r.set("kcache.key_us", "us", median(keyT))

	uni, err := universe.Open(st.uniPath)
	if err != nil {
		return err
	}
	defer uni.Close()
	var lookT []float64
	uniKeys := make([]kcache.Key, len(st.uni))
	for i, sp := range st.uni {
		uniKeys[i] = keyOf(sp)
	}
	for k := 0; k < rounds; k++ {
		for _, key := range uniKeys {
			lookT = append(lookT, us(tr.timed("universe.Lookup", -1, -1, func() { uni.Lookup(key) })))
		}
	}
	r.set("universe.lookup_us", "us", median(lookT))

	// kcache tiers on a copy of the served entries: L1 from memory, L2
	// from a one-entry cache cycling over more keys than it holds.
	putDir := filepath.Join(r.workDir, "trace-kcache")
	mem, err := kcache.New(putDir, 0)
	if err != nil {
		return err
	}
	var putT, l1T, l2T []float64
	for i, key := range uniKeys {
		e := &kcache.Entry{Backend: "enum", Program: fmt.Sprint("mov r1 r2 # ", i), Length: 1}
		putT = append(putT, us(tr.timed("kcache.Put", -1, -1, func() { err = mem.Put(key, e) })))
		if err != nil {
			return err
		}
	}
	disk, err := kcache.New(putDir, 1)
	if err != nil {
		return err
	}
	for k := 0; k < rounds/10; k++ {
		for _, key := range uniKeys {
			l1T = append(l1T, us(tr.timed("kcache.Get.l1", -1, -1, func() { mem.Get(key) })))
			l2T = append(l2T, us(tr.timed("kcache.Get.l2", -1, -1, func() { disk.Get(key) })))
		}
	}
	r.set("kcache.put_us", "us", median(putT))
	r.set("kcache.get_l1_us", "us", median(l1T))
	r.set("kcache.get_l2_us", "us", median(l2T))

	// The handler per tier, into a recorder. L2: the L2 set cycled in
	// order, each key evicted before it comes back.
	perTier := map[string][]hotSpec{"universe": st.uni, "l1": st.l1[:1], "l2": st.l2}
	for _, tier := range []string{"universe", "l1", "l2"} {
		specs := perTier[tier]
		var t []float64
		for k := 0; k < 1000; k++ {
			sp := specs[k%len(specs)]
			var code int
			var body []byte
			t = append(t, us(tr.timed("service.ServeHTTP."+tier, -1, k, func() {
				code, body = direct(st.l.srv, "POST", "/v1/synthesize", sp.body())
			})))
			if _, wrong, fail := st.judge(sp, code, body); wrong != nil {
				r.wrong(wrong)
			} else {
				r.attempt(fail)
			}
		}
		r.set("service.handler_us."+tier, "us", median(t))
	}

	// Allocations per L1 hit through the handler.
	sp := st.l1[0]
	var m0, m1 runtime.MemStats
	const allocN = 2000
	runtime.ReadMemStats(&m0)
	for k := 0; k < allocN; k++ {
		direct(st.l.srv, "POST", "/v1/synthesize", sp.body())
	}
	runtime.ReadMemStats(&m1)
	r.set("service.allocs_per_hit", "count", float64(m1.Mallocs-m0.Mallocs)/allocN)
	r.set("service.bytes_per_hit", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/allocN)

	// Tracing overhead: the same hits closed-loop, untraced then traced.
	var plain, traced time.Duration
	scratch := newTracer()
	for k := 0; k < 4; k++ {
		t := (*tracer)(nil)
		if k%2 == 1 {
			t = scratch
		}
		var spent time.Duration
		for i := 0; i < 500; i++ {
			sp := st.uni[i%len(st.uni)]
			start := time.Now()
			span := t.begin("request.hit", -1, i)
			code, body, err := st.l.do("POST", "/v1/synthesize", sp.body())
			t.end(span)
			spent += time.Since(start)
			if err != nil {
				r.attempt(err)
			} else if _, wrong, fail := st.judge(sp, code, body); wrong != nil {
				r.wrong(wrong)
			} else {
				r.attempt(fail)
			}
		}
		if t == nil {
			plain += spent
		} else {
			traced += spent
		}
	}
	r.set("bench.trace_overhead_pct.hot", "%", 100*float64(traced-plain)/float64(plain))
	return nil
}
