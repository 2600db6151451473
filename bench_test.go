// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benches for the design choices called out in
// DESIGN.md. Each experiment benchmark regenerates its artefact at reduced
// scale and reports the headline measurement via b.ReportMetric; the full
// printed tables come from cmd/experiments.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/ifair"
	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// benchCfg is a reduced-scale study configuration so a single benchmark
// iteration stays in the seconds range.
func benchCfg() pipeline.StudyConfig {
	return pipeline.StudyConfig{
		Seed:          1,
		Mixture:       []float64{1, 10},
		K:             []int{8},
		Restarts:      1,
		MaxIterations: 40,
		L2:            0.01,
		TrainFrac:     0.34,
		ValFrac:       0.33,
	}
}

func benchCompas() *dataset.Dataset {
	return dataset.Compas(dataset.ClassificationConfig{Records: 600, Seed: 1})
}

// benchXing keeps the first 18 queries (720 candidates) of a simulated
// Xing dataset.
func benchXing() *dataset.Dataset {
	ds := dataset.Xing(dataset.UniformXingWeights, dataset.RankingConfig{Seed: 1})
	var rows []int
	for _, q := range ds.Queries[:18] {
		rows = append(rows, q.Rows...)
	}
	return ds.Subset(rows)
}

// BenchmarkTable2DatasetStats regenerates the Table II statistics for all
// five simulated datasets.
func BenchmarkTable2DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, ds := range []*dataset.Dataset{
			dataset.Compas(dataset.ClassificationConfig{Records: 600, Seed: 1}),
			dataset.Census(dataset.ClassificationConfig{Records: 600, Seed: 1}),
			dataset.Credit(dataset.ClassificationConfig{Seed: 1}),
			dataset.Xing(dataset.UniformXingWeights, dataset.RankingConfig{Seed: 1}),
			dataset.Airbnb(dataset.RankingConfig{Seed: 1}),
		} {
			_ = ds.Summary()
		}
	}
}

// BenchmarkFig2Properties regenerates the synthetic properties study
// (Fig. 2): three data variants × {original, iFair, LFR}.
func BenchmarkFig2Properties(b *testing.B) {
	cfg := benchCfg()
	cfg.MaxIterations = 25
	b.ResetTimer()
	var lastYNN float64
	for i := 0; i < b.N; i++ {
		cells, err := pipeline.Fig2Study(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Method == "iFair" {
				lastYNN = c.YNN
			}
		}
	}
	b.ReportMetric(lastYNN, "iFair_yNN")
}

// BenchmarkFig3Tradeoff regenerates the utility/fairness point cloud and
// Pareto fronts of Fig. 3 per classification dataset.
func BenchmarkFig3Tradeoff(b *testing.B) {
	for _, gen := range []struct {
		name string
		ds   func() *dataset.Dataset
	}{
		{"Compas", func() *dataset.Dataset { return dataset.Compas(dataset.ClassificationConfig{Records: 600, Seed: 1}) }},
		{"Census", func() *dataset.Dataset { return dataset.Census(dataset.ClassificationConfig{Records: 600, Seed: 1}) }},
		{"Credit", func() *dataset.Dataset { return dataset.Credit(dataset.ClassificationConfig{Records: 400, Seed: 1}) }},
	} {
		b.Run(gen.name, func(b *testing.B) {
			ds := gen.ds()
			cfg := benchCfg()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results, err := pipeline.TradeoffStudy(ds, cfg)
				if err != nil {
					b.Fatal(err)
				}
				fronts := pipeline.ParetoByMethod(results)
				if len(fronts) == 0 {
					b.Fatal("no Pareto fronts produced")
				}
			}
		})
	}
}

// BenchmarkTable3Classification regenerates the Table III rows (three
// tuning criteria × methods) on the COMPAS simulation.
func BenchmarkTable3Classification(b *testing.B) {
	ds := benchCompas()
	cfg := benchCfg()
	b.ResetTimer()
	var gap float64
	for i := 0; i < b.N; i++ {
		rows, err := pipeline.Table3(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// headline: iFair-b consistency minus Full-Data consistency under
		// the Optimal criterion (the paper's central claim).
		var full, ifairB float64
		for _, r := range rows {
			if r.Result.Method == "Full Data" {
				full = r.Result.YNN
			}
			if r.Result.Method == "iFair-b" && r.Criterion == pipeline.Optimal {
				ifairB = r.Result.YNN
			}
		}
		gap = ifairB - full
	}
	b.ReportMetric(gap, "yNN_gain")
}

// BenchmarkTable4WeightSensitivity regenerates the Xing weight-sensitivity
// rows of Table IV.
func BenchmarkTable4WeightSensitivity(b *testing.B) {
	cfg := benchCfg()
	weights := []dataset.XingWeights{
		{Work: 0.25, Education: 0.75, Views: 0},
		{Work: 1, Education: 1, Views: 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Table4(cfg, weights); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable5Ranking regenerates the ranking-task comparison of
// Table V on the Xing simulation, including both FA*IR operating points.
func BenchmarkTable5Ranking(b *testing.B) {
	ds := benchXing()
	cfg := benchCfg()
	b.ResetTimer()
	var ynn float64
	for i := 0; i < b.N; i++ {
		results, err := pipeline.Table5(ds, cfg, []float64{0.5, 0.9})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			if r.Method == "iFair-b" {
				ynn = r.YNN
			}
		}
	}
	b.ReportMetric(ynn, "iFair_yNN")
}

// BenchmarkFig4Adversarial regenerates the protected-attribute obfuscation
// study of Fig. 4 on the COMPAS simulation.
func BenchmarkFig4Adversarial(b *testing.B) {
	ds := benchCompas()
	cfg := benchCfg()
	b.ResetTimer()
	var advAcc float64
	for i := 0; i < b.N; i++ {
		cells, err := pipeline.AdversarialStudy(ds, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Method == "iFair-b" {
				advAcc = c.Accuracy
			}
		}
	}
	b.ReportMetric(advAcc, "adv_acc")
}

// BenchmarkFig5PostProcess regenerates the FA*IR-on-iFair sweep of Fig. 5
// on the Xing simulation.
func BenchmarkFig5PostProcess(b *testing.B) {
	ds := benchXing()
	cfg := benchCfg()
	ps := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		points, err := pipeline.PostProcessStudy(ds, cfg, ps)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != len(ps) {
			b.Fatal("missing sweep points")
		}
	}
}

// ---- ablation benches (design choices from DESIGN.md) ----

func ablationData(m int) *mat.Dense {
	ds := dataset.Credit(dataset.ClassificationConfig{Records: m, Seed: 1})
	return ds.X
}

// BenchmarkAblationFairnessLoss compares the exact O(M²) pairwise fairness
// loss against the sampled O(M·S) approximation.
func BenchmarkAblationFairnessLoss(b *testing.B) {
	x := ablationData(300)
	for _, mode := range []struct {
		name string
		f    ifair.FairnessMode
	}{{"Pairwise", ifair.PairwiseFairness}, {"Sampled", ifair.SampledFairness}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ifair.Fit(x, ifair.Options{
					K: 8, Lambda: 1, Mu: 1, Fairness: mode.f,
					MaxIterations: 20, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationPrototypeCount sweeps K, the latent dimensionality.
func BenchmarkAblationPrototypeCount(b *testing.B) {
	x := ablationData(300)
	for _, k := range []int{5, 10, 20, 40} {
		b.Run(benchName("K", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ifair.Fit(x, ifair.Options{
					K: k, Lambda: 1, Mu: 1, Fairness: ifair.SampledFairness,
					MaxIterations: 20, Seed: 1,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRestarts measures the cost/benefit of the best-of-N
// restart protocol of Sec. V-B.
func BenchmarkAblationRestarts(b *testing.B) {
	x := ablationData(300)
	for _, r := range []int{1, 3} {
		b.Run(benchName("Restarts", r), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				model, err := ifair.Fit(x, ifair.Options{
					K: 8, Lambda: 1, Mu: 1, Fairness: ifair.SampledFairness,
					MaxIterations: 20, Restarts: r, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				loss = model.Loss
			}
			b.ReportMetric(loss, "final_loss")
		})
	}
}

// BenchmarkFitParallelRestarts measures the wall-clock effect of training
// the best-of-8 restart protocol on 1, 2 and 4 workers. Every variant
// returns the bit-identical winning model; only the schedule differs.
func BenchmarkFitParallelRestarts(b *testing.B) {
	x := ablationData(300)
	for _, workers := range []int{1, 2, 4} {
		b.Run(benchName("Workers", workers), func(b *testing.B) {
			var loss float64
			for i := 0; i < b.N; i++ {
				model, err := ifair.FitContext(context.Background(), x, ifair.Options{
					K: 8, Lambda: 1, Mu: 1, Fairness: ifair.SampledFairness,
					MaxIterations: 20, Restarts: 8, RestartWorkers: workers, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				loss = model.Loss
			}
			b.ReportMetric(loss, "final_loss")
		})
	}
}

// BenchmarkFitLarge measures training at representative scale on the
// synthetic mixture (3 encoded columns, column 2 protected). The m=10k
// variant is the full-gradient L-BFGS + SampledFairness reference; the
// SGD-Neighbor variants train with neighbor-indexed pair sampling and
// mini-batch SGD — the million-row path. The archived gate in
// BENCH_fit.json: m=100k SGD-Neighbor must stay under the m=10k L-BFGS
// wall-time, and final_loss must not drift upward. The paired m=10k
// rows document sampled-vs-neighbor loss parity at equal scale. Set
// IFAIR_BENCH_1M=1 to include the m=1e6 variant (minutes, not
// benchmarked by default).
func BenchmarkFitLarge(b *testing.B) {
	variants := []struct {
		name  string
		m     int
		opts  ifair.Options
		gated bool
	}{
		{
			name: "m=10k/LBFGS-Sampled",
			m:    10_000,
			opts: ifair.Options{
				K: 8, Lambda: 1, Mu: 1, Fairness: ifair.SampledFairness,
				PairSamples: 16, Seed: 1,
			},
		},
		{
			name: "m=10k/SGD-Neighbor",
			m:    10_000,
			opts: ifair.Options{
				K: 8, Lambda: 1, Mu: 1, Fairness: ifair.NeighborFairness,
				PairSamples: 16, NeighborK: 32,
				BatchSize: 1024, Epochs: 20, LearnRate: 0.01, Seed: 1,
			},
		},
		{
			name: "m=100k/SGD-Neighbor",
			m:    100_000,
			opts: ifair.Options{
				K: 8, Lambda: 1, Mu: 1, Fairness: ifair.NeighborFairness,
				PairSamples: 6, NeighborK: 6,
				BatchSize: 2048, Epochs: 2, LearnRate: 0.01, Seed: 1,
			},
		},
		{
			name: "m=1M/SGD-Neighbor",
			m:    1_000_000,
			opts: ifair.Options{
				K: 8, Lambda: 1, Mu: 1, Fairness: ifair.NeighborFairness,
				PairSamples: 8, NeighborK: 16,
				BatchSize: 4096, Epochs: 3, LearnRate: 0.01, Seed: 1,
			},
			gated: true,
		},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			if v.gated && os.Getenv("IFAIR_BENCH_1M") == "" {
				b.Skip("set IFAIR_BENCH_1M=1 to run the million-row fit")
			}
			ds := dataset.SyntheticMixture(dataset.VariantRandom, v.m, 1)
			opts := v.opts
			opts.Protected = ds.ProtectedCols
			b.ReportAllocs()
			b.ResetTimer()
			var loss float64
			for i := 0; i < b.N; i++ {
				model, err := ifair.Fit(ds.X, opts)
				if err != nil {
					b.Fatal(err)
				}
				loss = model.Loss
			}
			b.ReportMetric(loss, "final_loss")
		})
	}
}

// BenchmarkKDTreeAllNeighbors measures the NeighborFairness neighbour
// search on its own: the kd-tree build plus every record's exact kNN list
// over the synthetic mixture's non-protected columns, with Workers = 2.
// The m=10k, k=16 row is the perfbench train workload's shape; the
// m=100k, k=6 row is BenchmarkFitLarge's m=100k neighbour pool. allocs/op
// is gated by make bench-fit-compare.
func BenchmarkKDTreeAllNeighbors(b *testing.B) {
	for _, v := range []struct {
		name string
		m, k int
	}{
		{"m=10k/k=16", 10_000, 16},
		{"m=100k/k=6", 100_000, 6},
	} {
		b.Run(v.name, func(b *testing.B) {
			x := dataset.SyntheticMixture(dataset.VariantRandom, v.m, 1).NonProtectedX()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				neigh := NewKDTree(x).AllNeighborsWorkers(v.k, 2)
				if len(neigh) != v.m || len(neigh[0]) != v.k {
					b.Fatalf("got %d lists of %d, want %d of %d", len(neigh), len(neigh[0]), v.m, v.k)
				}
			}
		})
	}
}

// ingestBenchCSV builds an in-memory CSV: 4 numeric features plus a
// boolean label, with ~2% defective rows so the quarantine path is part
// of what is measured.
func ingestBenchCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(17))
	var sb strings.Builder
	sb.Grow(rows * 48)
	sb.WriteString("a,b,c,d,label\n")
	for i := 0; i < rows; i++ {
		if i%50 == 49 {
			sb.WriteString("garbage,1,2,3,true\n")
			continue
		}
		fmt.Fprintf(&sb, "%.6f,%.6f,%.6f,%.6f,%t\n",
			rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), i%3 == 0)
	}
	return []byte(sb.String())
}

// BenchmarkIngest measures the streaming CSV→shard pipeline end to end —
// parse, validate, quarantine, one-hot encode, CRC-frame, fsync, manifest
// commit — and archives rows/s plus allocation churn in BENCH_fit.json
// (gated by make bench-fit-compare).
func BenchmarkIngest(b *testing.B) {
	const rows = 50_000
	input := ingestBenchCSV(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := ingest.Run(context.Background(), bytes.NewReader(input), ingest.Config{
			Dir:        b.TempDir(),
			Schema:     ingest.Schema{ProtectedIndex: []int{3}, Outcome: "label"},
			MaxBadRows: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkTransform measures the pure inference cost of mapping records
// through a fitted model (the hot path for deployed pipelines).
func BenchmarkTransform(b *testing.B) {
	x := ablationData(300)
	model, err := ifair.Fit(x, ifair.Options{
		K: 10, Lambda: 1, Mu: 1, Fairness: ifair.SampledFairness,
		MaxIterations: 20, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.TransformChecked(x); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- serving benches (internal/server baselines) ----

// benchServingModel builds a deterministic fitted-shaped model without
// the training cost: K prototypes over N attributes, uniform weights.
func benchServingModel(k, n int) *ifair.Model {
	protos := mat.NewDense(k, n)
	for i := 0; i < k; i++ {
		for j := 0; j < n; j++ {
			protos.Set(i, j, float64((i*n+j)%7)*0.25-0.5)
		}
	}
	alpha := make([]float64, n)
	for j := range alpha {
		alpha[j] = 1
	}
	return &ifair.Model{Prototypes: protos, Alpha: alpha, P: 2, Kernel: ifair.ExpKernel}
}

// benchHTTPServer serves one model from a temp dir.
func benchHTTPServer(b *testing.B, cfg server.Config) (*server.Server, *httptest.Server) {
	b.Helper()
	dir := b.TempDir()
	f, err := os.Create(filepath.Join(dir, "bench.json"))
	if err != nil {
		b.Fatal(err)
	}
	if err := benchServingModel(10, 17).Encode(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	cfg.ModelDir = dir
	s, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

// BenchmarkServerTransform measures the server-side compute path of a
// 64-row transform request — batch staging plus the fused compiled
// kernel, exactly what internal/server runs between JSON decode and
// encode. The gate archived in BENCH_serve.json: 0 allocs/op.
func BenchmarkServerTransform(b *testing.B) {
	entry := &server.Entry{Name: "bench", Version: 1, Model: benchServingModel(10, 17)}
	kern, err := entry.Kernel()
	if err != nil {
		b.Fatal(err)
	}
	const rows, dims = 64, 17
	src := make([][]float64, rows)
	for i := range src {
		src[i] = make([]float64, dims)
		for j := range src[i] {
			src[i][j] = float64(i+j) * 0.01
		}
	}
	backing := make([]float64, 2*rows*dims)
	x := mat.NewDenseData(rows, dims, backing[:rows*dims])
	xt := mat.NewDenseData(rows, dims, backing[rows*dims:])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := range src {
			copy(x.Row(r), src[r])
		}
		if err := kern.TransformInto(xt, x, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkServerHTTPTransform measures the end-to-end HTTP serving path
// (row decode → kernel transform → row encode) with a 64-row batch per
// request. The values are seeded standard normals, full-precision
// decimals like real clients send, so the codec's parse and format cost
// is not under-measured.
func BenchmarkServerHTTPTransform(b *testing.B) {
	_, ts := benchHTTPServer(b, server.Config{MaxWait: 0})
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, 64)
	for i := range rows {
		row := make([]float64, 17)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		rows[i] = row
	}
	payload, err := json.Marshal(struct {
		Rows [][]float64 `json:"rows"`
	}{rows})
	if err != nil {
		b.Fatal(err)
	}
	url := ts.URL + "/v1/models/bench/transform"
	client := ts.Client()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	b.ReportMetric(float64(len(rows))*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkMicroBatcher measures the coalescing fast path: many
// goroutines pushing single rows through one Batcher.
func BenchmarkMicroBatcher(b *testing.B) {
	model := benchServingModel(10, 17)
	entry := &server.Entry{Name: "bench", Version: 1, Model: model}
	batcher := server.NewBatcher(server.BatcherConfig{MaxBatch: 64, MaxWait: 500 * time.Microsecond, Workers: 2})
	row := make([]float64, 17)
	for j := range row {
		row[j] = 0.1 * float64(j)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		dst := make([]float64, 17)
		for pb.Next() {
			if err := batcher.TransformRowInto(ctx, entry, dst, row); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}
