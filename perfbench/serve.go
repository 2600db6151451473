package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
	"unsafe"

	"repro/internal/admission"
	"repro/internal/ifair"
	"repro/internal/kernel"
	"repro/internal/mat"
	"repro/internal/server"
)

const (
	clients   = 2 // closed-loop connections: one per CPU of the reference box
	modelName = "bench"
	modelK    = 10
	modelN    = 17
	nBodies   = 128 // distinct request bodies per run
)

// serveShape is one serving workload: the same server and HTTP layer,
// driven with different bodies and micro-batcher settings.
type serveShape struct {
	rows   int           // rows per request body
	cfg    server.Config // ModelDir is filled in at set-up
	warmup int           // rounds per client before the clock starts
}

var (
	serveBatch = serveShape{rows: 64, warmup: 800}
	// MaxBatch equals the connection count, so every flush is triggered
	// by size; MaxWait is far above a round trip and only a safety net.
	serveRow = serveShape{rows: 1, warmup: 6000,
		cfg: server.Config{MaxBatch: clients, MaxWait: time.Second}}
)

// serveInputs are the seeded model and request bodies, with the oracle
// outputs computed before any server exists.
type serveInputs struct {
	model  *ifair.Model
	bodies [][]byte
	in     []*mat.Dense // the rows each body carries
	want   []*mat.Dense // kernel.TransformInto of in
}

func makeServeInputs(seed int64, rows int) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	protos := mat.NewDense(modelK, modelN)
	for i := range protos.Data() {
		protos.Data()[i] = rng.NormFloat64()
	}
	alpha := make([]float64, modelN)
	for j := range alpha {
		alpha[j] = 0.05 + 0.25*rng.Float64()
	}
	model := &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel}
	if err := model.Validate(); err != nil {
		return nil, err
	}
	kern, err := model.Compile(kernel.Float64)
	if err != nil {
		return nil, err
	}
	in := &serveInputs{model: model}
	for b := 0; b < nBodies; b++ {
		x := mat.NewDense(rows, modelN)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		body, err := json.Marshal(struct {
			Rows [][]float64 `json:"rows"`
		}{rowsOf(x)})
		if err != nil {
			return nil, err
		}
		want := mat.NewDense(rows, modelN)
		if err := kern.TransformInto(want, x, 1); err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
		in.in = append(in.in, x)
		in.want = append(in.want, want)
	}
	return in, nil
}

func rowsOf(x *mat.Dense) [][]float64 {
	rs := make([][]float64, x.Rows())
	for i := range rs {
		rs[i] = x.Row(i)
	}
	return rs
}

func writeModel(dir string, m *ifair.Model) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, modelName+".json"))
	if err != nil {
		return err
	}
	if err := m.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- the server under test ----

type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	done chan error
	hc   *http.Client
	base string
}

// startServer is the timed part of set-up: registry load, kernel
// compile, listener.
func startServer(cfg server.Config) (*liveServer, error) {
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	e, ok := srv.Registry().Get(modelName)
	if !ok {
		return nil, fmt.Errorf("model %q not loaded", modelName)
	}
	if _, err := e.Kernel(); err != nil {
		return nil, err
	}
	ls, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	ls.srv = srv
	return ls, nil
}

// listen serves h on a loopback port with a keep-alive client sized to
// the closed loop.
func listen(h http.Handler) (*liveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ls := &liveServer{
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: clients,
			MaxConnsPerHost:     clients,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	return ls, nil
}

func (ls *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if ls.srv != nil {
		ls.srv.Close()
	}
	ls.hc.CloseIdleConnections()
	return err
}

// post sends one transform request and reads the whole reply into buf.
func (ls *liveServer) post(buf *bytes.Buffer, body []byte) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, ls.base+"/v1/models/"+modelName+"/transform", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := ls.hc.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	return buf.Bytes(), nil
}

// scrape reads the mean micro-batch flush size and the admission shed
// count from the server's /metrics page.
func (ls *liveServer) scrape() (rowsPerFlush, shed float64, err error) {
	resp, err := ls.hc.Get(ls.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var sum, count float64
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:i]
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		switch {
		case name == "ifair_batch_size_sum":
			sum = v
		case name == "ifair_batch_size_count":
			count = v
		case strings.HasPrefix(name, "ifair_admission_shed_total"):
			shed += v
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if count > 0 {
		rowsPerFlush = sum / count
	}
	return rowsPerFlush, shed, nil
}

// ---- output check ----

var rowsKey = []byte(`"rows"`)

// matchRows checks the "rows" array of a JSON reply against want, bit
// for bit, and returns how many rows the reply carried. It parses the
// numbers in place without allocating, so checking a reply costs the
// same however the server formats its floats.
func matchRows(body []byte, want []float64) (rows int, ok bool) {
	i := bytes.Index(body, rowsKey)
	if i < 0 {
		return 0, false
	}
	p := body[i+len(rowsKey):]
	k, depth := 0, 0
	for j := 0; j < len(p); j++ {
		switch c := p[j]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
			if depth == 1 {
				rows++
			}
			if depth == 0 {
				return rows, k == len(want)
			}
		case c == '-' || (c >= '0' && c <= '9'):
			if depth != 2 || k == len(want) {
				return rows, false
			}
			e := j + 1
			for e < len(p) && isNumberByte(p[e]) {
				e++
			}
			v, err := strconv.ParseFloat(unsafe.String(&p[j], e-j), 64)
			if err != nil || math.Float64bits(v) != math.Float64bits(want[k]) {
				return rows, false
			}
			k++
			j = e - 1
		}
	}
	return rows, false
}

func isNumberByte(c byte) bool {
	return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// ---- closed loop ----

// loop runs call in a closed loop (see closedLoop), timing each call and
// recording it as a span when tr is set. call returns the rows the
// program reported for that call, or an error for a failed call.
func loop(name string, rounds int, d time.Duration, tr *tracer, call func(c, r int) (time.Duration, int, error)) loopResult {
	type state struct {
		lat               []time.Duration
		attempted, failed int64
		rows              uint64
		firstErr          error
	}
	st := make([]state, clients)
	for c := range st {
		st[c].lat = make([]time.Duration, 0, 1<<14)
	}
	elapsed := closedLoop(clients, rounds, d, func(c, r int) {
		s := &st[c]
		t0 := time.Now()
		dur, rows, err := call(c, r)
		s.attempted++
		if err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = err
			}
			return
		}
		s.lat = append(s.lat, dur)
		s.rows += uint64(rows)
		if tr != nil {
			tr.add(0, 0, 0, name, t0, t0.Add(dur))
		}
	})
	out := loopResult{elapsed: elapsed}
	for _, s := range st {
		out.lat = append(out.lat, s.lat...)
		out.attempted += s.attempted
		out.failed += s.failed
		out.rows += s.rows
		if s.firstErr != nil {
			fmt.Fprintf(os.Stderr, "%s: %d failed, first: %v\n", name, s.failed, s.firstErr)
		}
	}
	return out
}

// drive sends the workload's requests to ls and checks every reply.
func drive(ls *liveServer, in *serveInputs, rounds int, d time.Duration, tr *tracer) loopResult {
	bufs := make([]bytes.Buffer, clients)
	return loop("request", rounds, d, tr, func(c, r int) (time.Duration, int, error) {
		i := (r*clients + c) % len(in.bodies)
		t0 := time.Now()
		body, err := ls.post(&bufs[c], in.bodies[i])
		dur := time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		rows, ok := matchRows(body, in.want[i].Data())
		if !ok {
			return 0, 0, fmt.Errorf("body %d: reply differs from kernel.TransformInto", i)
		}
		return dur, rows, nil
	})
}

// ---- the workload ----

func runServe(cfg runConfig, shape serveShape) (*result, error) {
	in, err := makeServeInputs(cfg.seed, shape.rows)
	if err != nil {
		return nil, err
	}
	scfg := shape.cfg
	scfg.ModelDir = filepath.Join(cfg.workDir, "models")
	if err := writeModel(scfg.ModelDir, in.model); err != nil {
		return nil, err
	}
	res := newResult()
	cal := newCalibrator()

	// Set up several times; keep the last server.
	setups := make([]time.Duration, setupRepeats)
	var ls *liveServer
	for i := range setups {
		var cur *liveServer
		setups[i], err = timedSetup(cal, func() error {
			var err error
			if cur, err = startServer(scfg); err != nil {
				return err
			}
			res.add(drive(cur, in, shape.warmup, 0, nil))
			return nil
		})
		if err != nil {
			return nil, err
		}
		if i < len(setups)-1 {
			if err := cur.close(); err != nil {
				return nil, err
			}
		} else {
			ls = cur
		}
	}

	if cfg.trace {
		err = traceServe(cfg, cal, shape, in, ls, res)
	} else {
		runtime.GC()
		w := sliced(cal, cfg.duration, func(d time.Duration) loopResult { return drive(ls, in, 0, d, nil) }, nil)
		res.add(w)
		err = setEndToEnd(res, setups, w)
	}
	if err != nil {
		ls.close()
		return nil, err
	}

	perFlush, shed, err := ls.scrape()
	if err != nil {
		ls.close()
		return nil, err
	}
	if shed != 0 {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "admission shed %v requests\n", shed)
	}
	if shape.cfg.MaxBatch > 1 && perFlush != float64(shape.cfg.MaxBatch) {
		res.Correct = false
		fmt.Fprintf(os.Stderr, "micro-batcher flushed %.3f rows per batch, want %d\n", perFlush, shape.cfg.MaxBatch)
	}
	if err := ls.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// ---- traced run ----

const (
	// serveLedgerMargin is how far, in percent of the traced round trip,
	// the layer self times may sum from it. On serve-row the round trip
	// runs ~25% above the sum: across the network the two requests of a
	// micro-batch arrive further apart than the in-process probe's
	// callers, so the batcher waits longer for its partner there.
	serveLedgerMargin = 35.0
	// probeRounds caps the calls per client of one layer probe, which
	// bounds the span dump for sub-microsecond layers.
	probeRounds = 10000
)

// traceServe measures the closed loop untraced and traced, alternating
// (their difference is the tracing overhead), then times each layer on
// its own by calling its public function with the same bodies, clients
// and settings the server uses.
func traceServe(cfg runConfig, cal *calibrator, shape serveShape, in *serveInputs, ls *liveServer, res *result) error {
	tr := newTracer(1 << 17)
	plain, traced := alternate(cal, cfg.duration/2, func(d time.Duration, t *tracer) loopResult {
		return drive(ls, in, 0, d, t)
	}, tr, nil)
	res.add(plain)
	res.add(traced)
	perFlush, shed, err := ls.scrape()
	if err != nil {
		return err
	}
	roundtrip := quantile(traced.lat, 0.5)
	res.set("trace.overhead_ms", "ms", ms(roundtrip-quantile(plain.lat, 0.5)))
	res.set("net.roundtrip_p50_us", "us", us(roundtrip))
	res.set("batcher.rows_per_flush", "rows", perFlush)
	res.set("admission.shed", "count", shed)

	probes, err := serveProbes(shape, in, ls)
	if err != nil {
		return err
	}
	p50 := map[string]time.Duration{}
	each := cfg.duration / 2 / time.Duration(len(probes))
	for _, p := range probes {
		runtime.GC()
		left := probeRounds
		l := sliced(cal, each, func(d time.Duration) loopResult {
			if left == 0 {
				return loopResult{}
			}
			l := loop(p.name, left, d, tr, p.call)
			left -= int(l.attempted) / clients
			return l
		}, nil)
		res.add(l)
		p50[p.name] = quantile(l.lat, 0.5)
		if p.name == "server.handler" {
			res.set("server.handler_allocs", "allocs", float64(l.mallocs)/float64(l.attempted)-p.overheadAllocs)
		}
		if p.done != nil {
			if err := p.done(); err != nil {
				return err
			}
		}
	}

	handler, kern, adm := p50["server.handler"], p50["kernel.transform"], p50["admission.acquire"]
	var batcherSelf time.Duration
	if b, ok := p50["batcher.row"]; ok {
		res.set("batcher.row_p50_us", "us", us(b))
		batcherSelf = b - kern // the flush inside it runs the kernel
	}
	res.set("server.handler_p50_us", "us", us(handler))
	res.set("kernel.transform_p50_us", "us", us(kern))
	res.set("admission.acquire_p50_us", "us", us(adm))
	res.set("net.transport_p50_us", "us", us(p50["net.transport"]))
	res.set("server.self_us", "us", us(handler-kern-adm-batcherSelf))
	res.set("net.self_us", "us", us(roundtrip-handler))

	// Ledger: the independently measured transport plus the handler's
	// layers against the traced round trip.
	selfSum := p50["net.transport"] + (handler - kern - adm - batcherSelf) + adm + batcherSelf + kern
	residual := 100 * float64(roundtrip-selfSum) / float64(roundtrip)
	res.set("ledger.residual_pct", "%", residual)
	verdict := "within"
	if math.Abs(residual) > serveLedgerMargin {
		verdict = "OUTSIDE"
	}
	fmt.Fprintf(os.Stderr, "ledger: round trip %v, layer self times sum to %v, residual %.1f%% (%s the ±%.0f%% margin)\n",
		roundtrip, selfSum, residual, verdict, serveLedgerMargin)
	return tr.write(cfg.spanPath)
}

// layerProbe times one layer from outside by calling its public function.
type layerProbe struct {
	name           string
	call           func(c, r int) (time.Duration, int, error)
	overheadAllocs float64      // allocations per call made by the probe itself
	done           func() error // releases what the probe started
}

func serveProbes(shape serveShape, in *serveInputs, ls *liveServer) ([]layerProbe, error) {
	entry, ok := ls.srv.Registry().Get(modelName)
	if !ok {
		return nil, fmt.Errorf("model %q not loaded", modelName)
	}
	kern, err := entry.Kernel()
	if err != nil {
		return nil, err
	}
	workers := runtime.GOMAXPROCS(0) // the server's default Workers
	body := func(c, r int) int { return (r*clients + c) % len(in.bodies) }

	// net.transport: the same HTTP stack and body sizes, with a stub
	// handler that drains the request and writes a reply of the same shape.
	stubReply, err := json.Marshal(struct {
		Model   string      `json:"model"`
		Version int         `json:"version"`
		Rows    [][]float64 `json:"rows"`
	}{modelName, 1, rowsOf(in.want[0])})
	if err != nil {
		return nil, err
	}
	stubReply = append(stubReply, '\n')
	stub, err := listen(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(stubReply)
	}))
	if err != nil {
		return nil, err
	}
	stubBufs := make([]bytes.Buffer, clients)
	transport := layerProbe{
		name: "net.transport",
		call: func(c, r int) (time.Duration, int, error) {
			t0 := time.Now()
			reply, err := stub.post(&stubBufs[c], in.bodies[body(c, r)])
			dur := time.Since(t0)
			if err == nil && len(reply) != len(stubReply) {
				err = errors.New("stub reply truncated")
			}
			return dur, 0, err
		},
		done: stub.close,
	}

	// server.handler: the full handler in-process, without the network.
	h := ls.srv.Handler()
	newReq := func(i int) (*http.Request, *httptest.ResponseRecorder) {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/"+modelName+"/transform", bytes.NewReader(in.bodies[i]))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		// Sized up front so the recorder's growth is not counted as the
		// handler's allocations.
		rec.Body = bytes.NewBuffer(make([]byte, 0, 2*len(stubReply)))
		return req, rec
	}
	handler := layerProbe{
		name: "server.handler",
		call: func(c, r int) (time.Duration, int, error) {
			i := body(c, r)
			req, rec := newReq(i)
			t0 := time.Now()
			h.ServeHTTP(rec, req)
			dur := time.Since(t0)
			rows, ok := matchRows(rec.Body.Bytes(), in.want[i].Data())
			if rec.Code != http.StatusOK || !ok {
				return 0, 0, fmt.Errorf("handler: status %d, body %d differs", rec.Code, i)
			}
			return dur, rows, nil
		},
		overheadAllocs: allocsPer(1000, func(i int) { newReq(i % len(in.bodies)) }),
	}

	// kernel.transform: the compiled kernel the server's entry uses.
	outs := make([]*mat.Dense, clients)
	for c := range outs {
		outs[c] = mat.NewDense(shape.rows, modelN)
	}
	kernelProbe := layerProbe{
		name: "kernel.transform",
		call: func(c, r int) (time.Duration, int, error) {
			i := body(c, r)
			t0 := time.Now()
			var err error
			if shape.rows == 1 {
				err = kern.TransformRowInto(outs[c].Row(0), in.in[i].Row(0))
			} else {
				err = kern.TransformInto(outs[c], in.in[i], workers)
			}
			dur := time.Since(t0)
			if err == nil && !sameBits(outs[c].Data(), in.want[i].Data()) {
				err = fmt.Errorf("kernel: body %d differs", i)
			}
			return dur, shape.rows, err
		},
	}

	// admission.acquire: a limiter sized like the server's defaults.
	limiter := admission.NewLimiter(admission.Config{
		MaxConcurrent: 8 * workers,
		MaxQueue:      16 * workers,
		MaxQueueWait:  5 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	admissionProbe := layerProbe{
		name: "admission.acquire",
		call: func(c, r int) (time.Duration, int, error) {
			t0 := time.Now()
			release, err := limiter.Acquire(ctx)
			dur := time.Since(t0)
			if err != nil {
				return 0, 0, err
			}
			release()
			return dur, 0, nil
		},
		done: func() error { cancel(); return nil },
	}

	probes := []layerProbe{transport, handler, kernelProbe}
	if shape.rows == 1 {
		// batcher.row: a batcher configured like the server's.
		b := server.NewBatcher(server.BatcherConfig{
			MaxBatch:     shape.cfg.MaxBatch,
			MaxWait:      shape.cfg.MaxWait,
			Workers:      workers,
			FlushWorkers: workers,
			MaxPending:   16 * shape.cfg.MaxBatch,
		})
		e := &server.Entry{Name: modelName, Version: 1, Model: in.model}
		probes = append(probes, layerProbe{
			name: "batcher.row",
			call: func(c, r int) (time.Duration, int, error) {
				i := body(c, r)
				dst := outs[c].Row(0)
				t0 := time.Now()
				err := b.TransformRowInto(ctx, e, dst, in.in[i].Row(0))
				dur := time.Since(t0)
				if err == nil && !sameBits(dst, in.want[i].Data()) {
					err = fmt.Errorf("batcher: body %d differs", i)
				}
				return dur, 1, err
			},
			done: func() error { b.Close(); return nil },
		})
	}
	// Last: its done cancels the context the batcher probe also uses.
	return append(probes, admissionProbe), nil
}

// allocsPer returns the heap allocations per call of fn.
func allocsPer(n int, fn func(i int)) float64 {
	before := sampleUsage()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(sampleUsage().mallocs-before.mallocs) / float64(n)
}
