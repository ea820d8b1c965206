package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"leakydnn/internal/attack"
	"leakydnn/internal/dnn"
	"leakydnn/internal/eval"
	"leakydnn/internal/serve"
	"leakydnn/internal/trace"
)

// serve-open drives the extraction daemon over loopback TCP the way
// independent users would: single-trace uploads arrive as a Poisson stream at
// a low and a high rate (open loop, timed from when each was due), then a
// closed loop on one connection per CPU measures capacity. After set-up,
// nearly all of its time is LSTM inference inside attack.Extract; collection
// and training happen only in set-up.
const (
	// lowRate and highRate are about 30% and 55% of the daemon's capacity on
	// a 2-CPU host at the pool's trace mix (a closed loop completes ~100
	// uploads/s there). Nearer capacity the backlog, not the code, sets the
	// latency, and it does not repeat between runs.
	lowRate  = 30.0
	highRate = 55.0
	// The untraced run alternates segments of a low-rate open loop and a
	// saturated closed loop, half the time each, so both end-to-end figures
	// sample the whole run. Each segment is short enough for the kernel
	// blocks around it to track the host's speed (see calib.go).
	segment = time.Second
	// The traced run gives these shares of its seconds to the low and high
	// phases and the rest to the saturated one. At 30 seconds the low phase
	// carries its p90 and the high phase its p99 with uploads to spare.
	traceLowShare, traceHighShare = 0.2, 0.7
	// poolSets seeds each give one MLP (~200 samples), one ZFNet (~360 or
	// ~410, about evenly by seed) and three VGG (~1490) uploads. With VGG
	// the majority, the median latency falls inside the long traces' tight
	// cluster instead of on the ZFNet lengths' seed-dependent split.
	poolSets  = 16
	setupReps = 3
	// A send later than lateAfter behind its due time is late. A generator
	// lag p99 over lagBound, about three mean gaps at the high rate,
	// invalidates the run: a stalled generator offers less load than the
	// schedule and flatters the server. Shorter lags are the OS and Go
	// schedulers sharing two CPUs with the daemon; latency counts them,
	// being timed from the due time.
	lateAfter = 2 * time.Millisecond
	lagBound  = 50 * time.Millisecond
)

// upload is one pooled single-trace upload with its offline reference.
type upload struct {
	body  []byte
	truth *trace.Trace
	fp    string
	rec   *attack.Recovery
}

// daemon is one running mosconsd instance and a client bound to it.
type daemon struct {
	srv    *serve.Server
	cache  *serve.ModelCache
	url    string
	client *http.Client
	served chan error
}

func startDaemon(ctx context.Context, sc eval.Scale, workers int) (*daemon, error) {
	cache := serve.NewModelCache("")
	srv := serve.New(serve.Config{Scale: sc, MaxInFlight: workers, Cache: cache})
	if err := srv.Warm(ctx); err != nil {
		srv.Drain() //nolint:errcheck // nothing was served
		return nil, fmt.Errorf("warm: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain() //nolint:errcheck // nothing was served
		return nil, err
	}
	d := &daemon{
		srv:   srv,
		cache: cache,
		url:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     workers,
			MaxIdleConnsPerHost: workers,
			DisableCompression:  true,
		}},
		served: make(chan error, 1),
	}
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its accept loop to return.
func (d *daemon) stop() error {
	err := d.srv.Drain()
	if serr := <-d.served; err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	return err
}

// exchange is one upload as the client saw it.
type exchange struct {
	upload          int
	due, sent, done time.Time
	out             outcome
	extractMS       int64
	queueMS         int64
}

func (e exchange) latencyMS() float64 { return ms(e.done.Sub(e.due)) }

func latencies(ex []exchange) []float64 {
	out := make([]float64, len(ex))
	for i, e := range ex {
		out[i] = e.latencyMS()
	}
	return out
}

func countOK(ex []exchange) int {
	n := 0
	for _, e := range ex {
		if e.out == outOK {
			n++
		}
	}
	return n
}

func share(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }

func (d *daemon) post(ctx context.Context, body []byte) (int, serve.ExtractResponse, error) {
	var resp serve.ExtractResponse
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.url+"/extract", bytes.NewReader(body))
	if err != nil {
		return 0, resp, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	r, err := d.client.Do(req)
	if err != nil {
		return 0, resp, err
	}
	defer r.Body.Close()
	if r.StatusCode == http.StatusOK {
		err = json.NewDecoder(r.Body).Decode(&resp)
	}
	io.Copy(io.Discard, r.Body) //nolint:errcheck // drained for connection reuse
	return r.StatusCode, resp, err
}

// send uploads pool[i] and classifies the answer against its offline
// fingerprint.
func (d *daemon) send(ctx context.Context, pool []upload, i int, due time.Time) exchange {
	e := exchange{upload: i, due: due, sent: time.Now()}
	status, resp, err := d.post(ctx, pool[i].body)
	e.done = time.Now()
	match := len(resp.Traces) == 1 && resp.Traces[0].Fingerprint == pool[i].fp
	e.out = classifyResponse(err, status, match)
	e.extractMS, e.queueMS = resp.ExtractMS, resp.QueueWaitMS
	return e
}

// drawOrder draws n pool indexes as consecutive seeded permutations of the
// pool, so every phase sends the pool's trace mix.
func drawOrder(rng *rand.Rand, poolSize, n int) []int {
	out := make([]int, 0, n+poolSize)
	for len(out) < n {
		out = append(out, rng.Perm(poolSize)...)
	}
	return out[:n]
}

// openLoop sends a Poisson stream at rate for dur over conns connections. The
// generator never waits for answers: an upload due while every connection is
// busy queues in the client, and its latency counts from its due time. lags
// are how late the generator handed each upload over.
func (d *daemon) openLoop(ctx context.Context, pool []upload, rate float64, dur time.Duration, rng *rand.Rand, conns int) (ex []exchange, lags []float64) {
	var offsets []time.Duration
	for t := rng.ExpFloat64() / rate; t < dur.Seconds(); t += rng.ExpFloat64() / rate {
		offsets = append(offsets, time.Duration(t*float64(time.Second)))
	}
	order := drawOrder(rng, len(pool), len(offsets))
	ex = make([]exchange, len(offsets))
	lags = make([]float64, len(offsets))
	jobs := make(chan int, len(offsets)) // one slot per send: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				ex[i] = d.send(ctx, pool, order[i], start.Add(offsets[i]))
			}
		}()
	}
	for i, off := range offsets {
		due := start.Add(off)
		time.Sleep(time.Until(due))
		lags[i] = ms(time.Since(due))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return ex, lags
}

// closedLoop keeps conns uploads in flight until dur has passed and returns
// every exchange and the wall time until the last answer.
func (d *daemon) closedLoop(ctx context.Context, pool []upload, dur time.Duration, rng *rand.Rand, conns int) ([]exchange, time.Duration) {
	// No upload completes in under a millisecond.
	order := drawOrder(rng, len(pool), int(dur/time.Millisecond)*conns+len(pool))
	var (
		next atomic.Int64
		mu   sync.Mutex
		all  []exchange
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []exchange
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(order) {
					break
				}
				mine = append(mine, d.send(ctx, pool, order[i], time.Now()))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// collectPool collects the upload pool through Scale.CollectTraces, every
// trace at its own seed derived from the workload seed, and serializes each
// trace as one upload.
func collectPool(base eval.Scale, seed int64) ([]upload, error) {
	mlp, zfnet, vgg := base.Tested[0], base.Tested[1], base.Tested[2]
	var models []dnn.Model
	for i := 0; i < poolSets; i++ {
		models = append(models, mlp, zfnet, vgg, vgg, vgg)
	}
	sc := base
	sc.Seed = eval.DeriveSeed(seed, eval.StreamTested, 0)
	trs, err := sc.CollectTraces(models, eval.StreamTested)
	if err != nil {
		return nil, err
	}
	pool := make([]upload, len(trs))
	for i, tr := range trs {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return nil, err
		}
		pool[i] = upload{body: buf.Bytes(), truth: tr}
	}
	return pool, nil
}

// setUpServe is the timed set-up: collect the upload pool, start a daemon,
// warm its model set (collect the profiled traces and train) and send one
// upload of each victim.
func setUpServe(ctx context.Context, sc eval.Scale, o options) (*daemon, []upload, error) {
	pool, err := collectPool(sc, o.seed)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(ctx, sc, o.workers)
	if err != nil {
		return nil, nil, err
	}
	for i := range sc.Tested {
		status, _, err := d.post(ctx, pool[i].body)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("warm-up upload answered %d", status)
		}
		if err != nil {
			d.stop() //nolint:errcheck // already failing
			return nil, nil, err
		}
	}
	return d, pool, nil
}

// offlineReference extracts every pooled upload offline from its bytes with
// the daemon's model set: the fingerprint every answer must match.
func offlineReference(ctx context.Context, m *attack.Models, pool []upload) error {
	for i := range pool {
		tr, err := trace.NewReader(bytes.NewReader(pool[i].body)).Read()
		if err != nil {
			return err
		}
		rec, err := m.ExtractTraceCtx(ctx, tr)
		if err != nil {
			return fmt.Errorf("offline extraction of upload %d: %w", i, err)
		}
		pool[i].fp, pool[i].rec = rec.Fingerprint(), rec
	}
	return nil
}

func runServeOpen(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	sc := eval.Tiny()
	sc.Workers = o.workers

	var (
		d      *daemon
		pool   []upload
		setups []float64
	)
	h := newHostClock(o.workers)
	for r := 0; r < setupReps; r++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if d, pool, err = setUpServe(ctx, sc, o); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds()*h.scale())
	}
	defer d.stop() //nolint:errcheck // the run's outcome is already decided
	rep.metrics["setup_s"] = median(setups)

	models, err := d.cache.Get(ctx, sc)
	if err != nil {
		return nil, err
	}
	if err := offlineReference(ctx, models, pool); err != nil {
		return nil, err
	}

	var (
		low, high, sat []exchange
		lags           []float64
		// lowScaled are the low-rate latencies on the nominal host;
		// satScaled is the closed loop's time there. The traced run,
		// which prints no end-to-end metric, keeps them raw.
		lowScaled []float64
		satOK     int
		satWall   time.Duration
		satScaled float64
	)
	total := time.Duration(o.seconds) * time.Second
	rng := rand.New(rand.NewSource(o.seed))
	allocated := allocatedMB()
	if o.trace {
		var hl []float64
		low, lags = d.openLoop(ctx, pool, lowRate, share(total, traceLowShare), rng, o.workers)
		high, hl = d.openLoop(ctx, pool, highRate, share(total, traceHighShare), rng, o.workers)
		lags = append(lags, hl...)
		lowScaled = latencies(low)
		sat, satWall = d.closedLoop(ctx, pool, share(total, 1-traceLowShare-traceHighShare), rng, o.workers)
		satOK, satScaled = countOK(sat), satWall.Seconds()
	} else {
		h.restart()
		for r := 0; r < max(1, int(total/(2*segment))); r++ {
			l, ll := d.openLoop(ctx, pool, lowRate, segment, rng, o.workers)
			f := h.scale()
			for _, e := range l {
				lowScaled = append(lowScaled, e.latencyMS()*f)
			}
			low, lags = append(low, l...), append(lags, ll...)
			s, wall := d.closedLoop(ctx, pool, segment, rng, o.workers)
			f = h.scale()
			sat = append(sat, s...)
			satOK += countOK(s)
			satWall += wall
			satScaled += wall.Seconds() * f
		}
	}

	all := append(append(append([]exchange(nil), low...), high...), sat...)
	rep.metrics["alloc_mb_per_op"] = (allocatedMB() - allocated) / float64(len(all))
	for _, e := range all {
		rep.tally.add(e.out)
	}
	lowLat, highLat := latencies(low), latencies(high)
	uploadsPerS := float64(satOK) / satWall.Seconds()
	rep.metrics["ops_per_s"] = float64(satOK) / satScaled
	rep.metrics["latency_p50_ms"] = percentile(lowScaled, 50)
	rep.metrics["ok_frac"] = 1 - rep.tally.errorFrac()
	for k := outOK + 1; k < numOutcomes; k++ {
		if n := rep.tally[k]; n > 0 {
			rep.problem("%d uploads ended %s", n, outcomeNames[k])
		}
	}

	late := 0
	for _, l := range lags {
		if l > ms(lateAfter) {
			late++
		}
	}
	lagP99 := percentile(lags, 99)
	if lagP99 > ms(lagBound) {
		rep.problem("generator lag p99 %.2f ms exceeds %v: the open loop did not keep its schedule", lagP99, lagBound)
	}
	rep.note("serve-open: %d uploads in %d-upload pool; low %d, high %d, saturated %d; generator lag p99 %.3f ms, %d late sends",
		len(low)+len(high)+len(sat), len(pool), len(low), len(high), len(sat), lagP99, late)
	rep.note("on this host: saturated %.2f uploads/s, low-rate p50 %.2f ms; %s; %s; %s", uploadsPerS, percentile(lowLat, 50),
		summary("set-up s", setups), summary("kernel block ms", h.blocksMS), summary("host scale factor", h.factors))
	if !supports(len(low), 90) || (o.trace && !supports(len(high), 99)) {
		rep.note("too few uploads for the low p90 (needs %d) or high p99 (needs %d); run with more --seconds",
			samplesFor(90), samplesFor(99))
	}

	if !o.trace {
		return rep, nil
	}
	m := rep.metrics
	m["latency_p50_ms_low"] = percentile(lowLat, 50)
	m["latency_p90_ms_low"] = percentile(lowLat, 90)
	m["latency_p50_ms_high"] = percentile(highLat, 50)
	m["latency_p99_ms_high"] = percentile(highLat, 99)
	m["uploads_per_s"] = uploadsPerS
	m["error_frac"] = rep.tally.errorFrac()
	m["bench.gen_lag_ms_p99"] = lagP99
	m["bench.late_sends"] = float64(late)
	m["bench.samples_low"] = float64(len(low))
	m["bench.samples_high"] = float64(len(high))
	quality(rep, pool)
	serverSide(rep, all, d.srv.Metrics())
	if err := redriveUploads(ctx, rep, o, sc, models, pool); err != nil {
		return nil, err
	}
	return rep, nil
}

// quality is the mean extraction accuracy of the offline recoveries against
// each pooled trace's ground truth.
func quality(rep *report, pool []upload) {
	var letter, layer, hp []float64
	for _, u := range pool {
		la, ha := attack.LayerAccuracy(u.rec.Layers, u.truth.Model)
		_, lt := attack.LetterAccuracy(u.rec.Letters, attack.LetterTruth(u.truth.Labels(), u.rec.Base))
		letter, layer, hp = append(letter, lt), append(layer, la), append(hp, ha)
	}
	rep.metrics["letter_acc"] = mean(letter)
	rep.metrics["layer_acc"] = mean(layer)
	rep.metrics["hp_acc"] = mean(hp)
}

// serverSide reads the daemon's own account of the traffic: its per-response
// stage times and its admission counters.
func serverSide(rep *report, all []exchange, sm serve.MetricsSnapshot) {
	var extract, queue, overhead []float64
	for _, e := range all {
		if e.out != outOK {
			continue
		}
		extract = append(extract, float64(e.extractMS))
		queue = append(queue, float64(e.queueMS))
		overhead = append(overhead, ms(e.done.Sub(e.sent))-float64(e.extractMS+e.queueMS))
	}
	m := rep.metrics
	m["serve.extract_ms_p50"] = percentile(extract, 50)
	m["serve.queue_wait_ms_p50"] = percentile(queue, 50)
	m["serve.overhead_ms_p50"] = percentile(overhead, 50)
	m["serve.shed"] = float64(sm.Shed)
	m["serve.failed"] = float64(sm.Failed)
	m["serve.cancelled"] = float64(sm.Cancelled)
}

// stageMin and stageMax bound the serve re-drive's attribution: featurize +
// split + LSTM predict, timed as separate calls, must cover between them of
// the whole extraction's time. The remainder (voting LSTMs,
// collapse and parse) is attack.other_ms.
const stageMin, stageMax = 0.70, 1.05

// redriveUploads replays every pooled upload single-threaded through each
// layer's public entry point inside spans, then retrains the model set from
// scratch to split set-up into collection and training.
func redriveUploads(ctx context.Context, rep *report, o options, sc eval.Scale, models *attack.Models, pool []upload) error {
	t := newTracer()
	var samples, long, fallback, untraced, traced float64
	for i, u := range pool {
		op := fmt.Sprintf("upload-%d", i)
		root, rootStart := t.reserve()
		var (
			tr       *trace.Trace
			err      error
			features [][]float64
			split    *attack.SplitResult
			rec      *attack.Recovery
		)
		t.timed(op, "trace.read", root, func() { tr, err = trace.NewReader(bytes.NewReader(u.body)).Read() })
		if err != nil {
			return err
		}
		t.timed(op, "attack.featurize", root, func() { features = attack.FeatureMatrix(models.Scaler, tr.Samples) })
		t.timed(op, "attack.split", root, func() {
			split, err = models.SplitSegmented(features, trace.SegmentBounds(tr.Samples, tr.Reanchors))
		})
		if err != nil {
			return err
		}
		t.timed(op, "lstm.predict", root, func() { err = predictStages(models, features, split) })
		if err != nil {
			return err
		}
		// The untraced twin of the extraction span, alternating which runs
		// first, gives the tracing overhead.
		var plainErr error
		plain := func() {
			start := time.Now()
			_, plainErr = models.ExtractTraceCtx(ctx, tr)
			untraced += ms(time.Since(start))
		}
		if i%2 == 0 {
			plain()
		}
		_, d := t.timed(op, "attack.extract", root, func() { rec, err = models.ExtractTraceCtx(ctx, tr) })
		traced += ms(d)
		if i%2 == 1 {
			plain()
		}
		if err = errors.Join(err, plainErr); err != nil {
			return err
		}
		t.finish(root, op, "upload", 0, rootStart)
		if rec.Fingerprint() != u.fp {
			rep.problem("re-drive of upload %d: fingerprint differs from the offline extraction", i)
			rep.tally.add(outMismatch)
		}
		samples += float64(len(tr.Samples))
		if len(tr.Samples) > 1000 {
			long++
		}
		if rec.Coverage.UsedFallback {
			fallback++
		}
	}

	// Set-up split: the daemon's warm-up is profiled collection + training.
	var (
		profiled  []*trace.Trace
		retrained *attack.Models
		err       error
	)
	t.timed("setup", "eval.collect", 0, func() { profiled, err = sc.CollectTraces(sc.Profiled, eval.StreamProfiled) })
	if err != nil {
		return err
	}
	t.timed("setup", "attack.train", 0, func() { retrained, err = attack.TrainModels(profiled, sc.AttackConfig()) })
	if err != nil {
		return err
	}
	if rec, err := retrained.ExtractTrace(pool[0].truth); err != nil || rec.Fingerprint() != pool[0].fp {
		rep.problem("a model set retrained from scratch does not reproduce the daemon's answer (err %v)", err)
		rep.tally.add(outMismatch)
	}

	n := float64(len(pool))
	m := rep.metrics
	m["trace.read_ms"] = t.meanOf("trace.read", time.Millisecond)
	m["attack.featurize_ms"] = t.meanOf("attack.featurize", time.Millisecond)
	m["attack.split_ms"] = t.meanOf("attack.split", time.Millisecond)
	m["lstm.predict_ms"] = t.meanOf("lstm.predict", time.Millisecond)
	m["attack.extract_ms"] = t.meanOf("attack.extract", time.Millisecond)
	stages := m["attack.featurize_ms"] + m["attack.split_ms"] + m["lstm.predict_ms"]
	m["attack.other_ms"] = m["attack.extract_ms"] - stages
	m["attack.stage_sum_frac"] = stages / m["attack.extract_ms"]
	if f := m["attack.stage_sum_frac"]; f < stageMin || f > stageMax {
		rep.problem("serve attribution: timed stages cover %.3f of extraction, outside [%.2f, %.2f]", f, stageMin, stageMax)
	}
	m["attack.samples_mean"] = samples / n
	m["attack.long_share"] = long / n
	m["attack.fallback_frac"] = fallback / n
	m["eval.collect_s"] = t.meanOf("eval.collect", time.Second)
	m["attack.train_s"] = t.meanOf("attack.train", time.Second)
	m["bench.trace_overhead_ms"] = (traced - untraced) / n
	m["error_frac"] = rep.tally.errorFrac()
	return dumpSpans(rep, t, o)
}

// predictStages runs the LSTM inference extraction performs, as separate
// public calls: Mlong and Mop over each used iteration, then every trained
// Mhp head over the base iteration. Used iterations are chosen as extraction
// chooses them: the length-filtered ones, else all detected ones, repeating
// the last to fill VoteIterations.
func predictStages(m *attack.Models, features [][]float64, split *attack.SplitResult) error {
	iters := split.Valid
	if len(iters) == 0 {
		iters = split.All
	}
	if len(iters) == 0 {
		return errors.New("no iterations detected")
	}
	var base attack.Range
	for j := 0; j < m.Cfg.VoteIterations; j++ {
		r := iters[min(j, len(iters)-1)]
		if j == 0 {
			base = r
		}
		if _, err := m.Long.Predict(features[r.Start:r.End]); err != nil {
			return err
		}
		if _, err := m.Op.Predict(features[r.Start:r.End]); err != nil {
			return err
		}
	}
	for _, head := range m.HP {
		if head == nil {
			continue
		}
		if _, err := head.Predict(features[base.Start:base.End]); err != nil {
			return err
		}
	}
	return nil
}
