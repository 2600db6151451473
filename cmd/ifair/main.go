// Command ifair trains an individually fair representation and writes the
// transformed data as CSV. It accepts either a CSV file or the name of
// one of the built-in dataset simulators.
//
// Usage:
//
//	ifair -dataset credit -k 10 -lambda 1 -mu 1 -out fair.csv
//	ifair -input data.csv -protected 3,4 -k 20 -out fair.csv
//	ifair -dataset credit -checkpoint ckpt/ -out fair.csv   # crash-safe
//	ifair -input big.csv -fairness neighbor -batch 1024 -epochs 20 -out fair.csv
//	ifair -dataset credit -save models/credit@v1.json -save-profile models/credit.profile
//	ifair -dataset credit -warm-start models/credit@v1.json -save models/credit@v2.json
//	ifair -input dirty.csv -ingest store/ -max-bad-rows 100 -out fair.csv
//
// Large datasets train with -fairness neighbor (fairness pairs drawn
// from each record's nearest neighbours on the non-protected columns)
// and -batch (mini-batch SGD with dataset-size-independent memory); the
// full-pair and full-batch defaults remain exact for small data.
//
// CSV input must have a header row and numeric or boolean (true/false,
// yes/no, 1/0) cells; -protected lists zero-based column indices of
// protected attributes. Rows are validated by internal/ingest's row
// validator with or without -ingest, so both accept the same rows; they
// differ only in where the rows are stored.
//
// With -ingest, the input CSV is streamed through the robust ingestion
// pipeline (internal/ingest) into a durable shard store: rows are
// validated (arity, parseability, finiteness), defective rows are
// quarantined with row-numbered reasons under the -max-bad-rows budget,
// and training reads the CRC-verified shards instead of the raw file. A
// killed ingest continues with -resume-ingest and yields a byte-identical
// store; -save-profile builds its drift profile during the same single
// ingest pass.
//
// With -checkpoint, every finished restart is snapshotted atomically to
// the given directory; if the process is killed (SIGINT/SIGTERM) or
// crashes, rerunning the same command replays the finished restarts,
// re-runs the rest from their seeds and produces a model bit-identical to
// an uninterrupted run. -resume additionally errors when the directory's
// snapshot belongs to a different dataset, options or seed instead of
// silently starting fresh.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/drift"
	"repro/internal/ifair"
	"repro/internal/ingest"
	"repro/internal/mat"
	"repro/internal/optimize"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ifair:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dsName    = flag.String("dataset", "", "built-in dataset: compas, census, credit, xing, airbnb")
		input     = flag.String("input", "", "CSV file with a header row and numeric or boolean cells")
		protected = flag.String("protected", "", "comma-separated zero-based protected column indices (CSV input)")
		out       = flag.String("out", "", "output CSV path (default stdout)")
		k         = flag.Int("k", 10, "number of prototypes")
		lambda    = flag.Float64("lambda", 1, "reconstruction loss weight λ")
		mu        = flag.Float64("mu", 1, "individual fairness loss weight µ")
		variantB  = flag.Bool("maskedinit", true, "use iFair-b initialisation (near-zero protected weights)")
		fairness  = flag.String("fairness", "sampled", "fairness pairing: pairwise, sampled, neighbor")
		samples   = flag.Int("pair-samples", 16, "fairness partners per record (sampled/neighbor modes)")
		neighborK = flag.Int("neighbor-k", ifair.DefaultNeighborK, "neighbour pool per record (neighbor mode)")
		batch     = flag.Int("batch", 0, "mini-batch size; > 0 trains with SGD instead of L-BFGS")
		epochs    = flag.Int("epochs", 30, "SGD epochs per restart (with -batch)")
		learnRate = flag.Float64("lr", 0.01, "SGD per-item learning rate (with -batch)")
		restarts  = flag.Int("restarts", 3, "random restarts (best final loss wins)")
		workers   = flag.Int("restart-workers", runtime.NumCPU(), "restarts trained concurrently (1 = serial; same model either way)")
		progress  = flag.Bool("progress", false, "print per-restart training progress to stderr")
		maxIter   = flag.Int("maxiter", 150, "maximum L-BFGS iterations")
		seed      = flag.Int64("seed", 42, "random seed")
		saveModel = flag.String("save", "", "write the trained model as JSON to this path")
		loadModel = flag.String("load", "", "skip training: load a model JSON and transform the input")
		warmStart = flag.String("warm-start", "", "seed restart 0 from this model JSON (refit: continue from the served representation)")
		saveProf  = flag.String("save-profile", "", "write a drift profile (baseline stats + reference sample of the training data) to this path")
		profRows  = flag.Int("profile-rows", drift.DefaultReferenceRows, "reference rows sampled into the drift profile (with -save-profile)")
		explain   = flag.Bool("explain", false, "print the learned attribute weights (largest first) to stderr")
		ckptDir   = flag.String("checkpoint", "", "directory for crash-safe training snapshots (enables checkpointing)")
		resume    = flag.Bool("resume", false, "require the checkpoint to match this run (error on mismatch instead of starting fresh)")
		ingestDir = flag.String("ingest", "", "shard-store directory: stream -input through the robust ingest pipeline and train from the store")
		shardRows = flag.Int("shard-rows", ingest.DefaultShardRows, "rows per shard (with -ingest)")
		maxBad    = flag.Int("max-bad-rows", 0, "quarantine budget (with -ingest): fail once more than this many rows are defective; -1 = unlimited")
		resumeIng = flag.Bool("resume-ingest", false, "continue an interrupted ingest in the -ingest directory from its last durable shard")
	)
	flag.Parse()

	if *profRows < 1 {
		return fmt.Errorf("-profile-rows must be at least 1, got %d", *profRows)
	}
	if *ingestDir != "" {
		switch {
		case *input == "":
			return fmt.Errorf("-ingest streams a CSV file; it requires -input")
		case *dsName != "":
			return fmt.Errorf("-ingest cannot be combined with -dataset")
		case *loadModel != "":
			return fmt.Errorf("-ingest trains from the shard store; it cannot be combined with -load")
		}
	} else if *resumeIng {
		return fmt.Errorf("-resume-ingest requires -ingest")
	}

	var (
		x        *mat.Dense
		protCols []int
		header   []string
		err      error
	)
	if *ingestDir == "" {
		x, protCols, header, err = loadData(*dsName, *input, *protected, *seed)
		if err != nil {
			return err
		}
	}

	if *loadModel != "" && *warmStart != "" {
		return fmt.Errorf("-warm-start seeds training; it cannot be combined with -load (which skips training)")
	}

	var model *ifair.Model
	var ingProfile *drift.Profile
	if *loadModel != "" {
		// Same loading/validation path as the serving registry
		// (internal/server): one source of truth for reading model files.
		model, err = ifair.LoadModelFile(*loadModel)
		if err != nil {
			return err
		}
		if model.Dims() != x.Cols() {
			return fmt.Errorf("model expects %d attributes, input has %d", model.Dims(), x.Cols())
		}
		fmt.Fprintf(os.Stderr, "loaded iFair model: K=%d, N=%d\n", model.K(), model.Dims())
	} else {
		mode, err := fairnessMode(*fairness)
		if err != nil {
			return err
		}
		opts := ifair.Options{
			K:              *k,
			Lambda:         *lambda,
			Mu:             *mu,
			Protected:      protCols,
			Fairness:       mode,
			PairSamples:    *samples,
			NeighborK:      *neighborK,
			BatchSize:      *batch,
			Epochs:         *epochs,
			LearnRate:      *learnRate,
			Restarts:       *restarts,
			RestartWorkers: *workers,
			MaxIterations:  *maxIter,
			Seed:           *seed,
		}
		if *variantB {
			opts.Init = ifair.InitMaskedProtected
		}
		if *warmStart != "" {
			donor, err := ifair.LoadModelFile(*warmStart)
			if err != nil {
				return fmt.Errorf("warm start: %w", err)
			}
			opts.WarmStart = donor
			fmt.Fprintf(os.Stderr, "warm-starting restart 0 from %s (K=%d, N=%d, loss %.6g)\n",
				*warmStart, donor.K(), donor.Dims(), donor.Loss)
		}
		if *progress {
			opts.Trace = &progressTrace{w: os.Stderr}
		}
		var mgr *checkpoint.Manager
		if *ckptDir != "" {
			mgr, err = checkpoint.Open(checkpoint.Config{
				Dir:    *ckptDir,
				Strict: *resume,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(os.Stderr, "checkpoint: "+format+"\n", args...)
				},
			})
			if err != nil {
				return err
			}
			opts.Checkpoint = mgr
		}
		// SIGINT/SIGTERM cancel the fit (and a -ingest scan); the engine
		// stops every in-flight restart within one iteration.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if *ingestDir != "" {
			model, x, header, ingProfile, err = ingestAndFit(ctx, *input, *protected, ingestOpts{
				dir:       *ingestDir,
				shardRows: *shardRows,
				maxBad:    *maxBad,
				resume:    *resumeIng,
			}, opts, *saveProf != "", *profRows, *seed)
		} else {
			model, err = ifair.FitContext(ctx, x, opts)
		}
		if err != nil {
			if mgr != nil && ctx.Err() != nil {
				// Killed mid-training: flush a final snapshot so a finished
				// restart whose own snapshot write failed still reaches
				// disk before the next invocation resumes.
				if ferr := mgr.Flush(); ferr != nil {
					fmt.Fprintf(os.Stderr, "checkpoint: final flush failed: %v\n", ferr)
				} else {
					fmt.Fprintf(os.Stderr, "checkpoint: interrupted; state saved to %s — rerun with the same flags to resume\n", mgr.Dir())
				}
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "trained iFair model: K=%d, N=%d, final loss %.6g\n",
			model.K(), model.Dims(), model.Loss)
	}
	if *saveModel != "" {
		// Publish atomically: a served models/<name>@vN.json is never
		// truncated by a failed encode or a kill mid-write, and the
		// ".json.tmp" staging name never parses as a model file.
		var buf bytes.Buffer
		if err := model.Encode(&buf); err != nil {
			return err
		}
		if err := checkpoint.WriteFileAtomic(checkpoint.OSFS{}, *saveModel+".tmp", *saveModel, buf.Bytes()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved model to %s\n", *saveModel)
	}
	if *saveProf != "" {
		// The serving tier's drift monitor and live-yNN estimator compare
		// traffic against exactly this training distribution; place the
		// file at server.ProfilePath(modelsDir, name) to arm the rollout
		// guard for the model.
		p := ingProfile // -ingest builds it during the ingest pass itself
		if p == nil {
			p = drift.NewProfile(x, 0, *profRows, *seed)
		}
		if err := drift.SaveProfile(*saveProf, p); err != nil {
			return fmt.Errorf("save profile: %w", err)
		}
		fmt.Fprintf(os.Stderr, "saved drift profile to %s (%d reference rows)\n",
			*saveProf, len(p.Reference))
	}
	if *explain {
		fmt.Fprintln(os.Stderr, "learned attribute weights (α, largest first):")
		for _, w := range model.AttributeWeights(header) {
			fmt.Fprintf(os.Stderr, "  %-30s %.6f\n", w.Name, w.Weight)
		}
	}

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	xt, err := model.TransformChecked(x)
	if err != nil {
		return err
	}
	return writeCSV(w, header, xt)
}

// progressTrace prints restart and iteration events as human-readable
// stderr lines. Restarts run concurrently, so writes are mutex-guarded.
type progressTrace struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *progressTrace) RestartStart(r int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "restart %d: started\n", r)
}

func (p *progressTrace) Iteration(r int, it optimize.Iteration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "restart %d: iter %3d  loss %.6g  |grad| %.3g  step %.3g\n",
		r, it.Iter, it.F, it.GradNorm, it.Step)
}

func (p *progressTrace) RestartEnd(r int, res optimize.Result, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil {
		fmt.Fprintf(p.w, "restart %d: failed: %v\n", r, err)
		return
	}
	fmt.Fprintf(p.w, "restart %d: %s after %d iterations, final loss %.6g\n",
		r, res.Status, res.Iterations, res.F)
}

// fairnessMode parses the -fairness flag.
func fairnessMode(name string) (ifair.FairnessMode, error) {
	switch name {
	case "pairwise":
		return ifair.PairwiseFairness, nil
	case "sampled":
		return ifair.SampledFairness, nil
	case "neighbor":
		return ifair.NeighborFairness, nil
	default:
		return 0, fmt.Errorf("unknown -fairness %q (choose pairwise, sampled, neighbor)", name)
	}
}

// loadData resolves the input source: a simulator name or a CSV file.
func loadData(dsName, input, protected string, seed int64) (*mat.Dense, []int, []string, error) {
	switch {
	case dsName != "" && input != "":
		return nil, nil, nil, fmt.Errorf("use either -dataset or -input, not both")
	case dsName != "":
		ds, err := builtinDataset(dsName, seed)
		if err != nil {
			return nil, nil, nil, err
		}
		return ds.X, ds.ProtectedCols, ds.FeatureNames, nil
	case input != "":
		return loadCSV(input, protected)
	default:
		return nil, nil, nil, fmt.Errorf("specify -dataset <name> or -input <file.csv>")
	}
}

func builtinDataset(name string, seed int64) (*dataset.Dataset, error) {
	switch name {
	case "compas":
		return dataset.Compas(dataset.ClassificationConfig{Seed: seed}), nil
	case "census":
		return dataset.Census(dataset.ClassificationConfig{Seed: seed}), nil
	case "credit":
		return dataset.Credit(dataset.ClassificationConfig{Seed: seed}), nil
	case "xing":
		return dataset.Xing(dataset.UniformXingWeights, dataset.RankingConfig{Seed: seed}), nil
	case "airbnb":
		return dataset.Airbnb(dataset.RankingConfig{Seed: seed}), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q (choose compas, census, credit, xing, airbnb)", name)
	}
}

// ingestOpts carries the -ingest flag group.
type ingestOpts struct {
	dir       string
	shardRows int
	maxBad    int
	resume    bool
}

// ingestAndFit streams the CSV at path through internal/ingest into a
// durable shard store and trains from it: every row is validated,
// defective rows are quarantined under the error budget, and the fit
// reads CRC-verified shards with streaming (Welford) standardisation.
// When wantProfile, the drift profile is accumulated by a RowObserver
// during the same ingest pass. Returns the model, the standardised
// training matrix, the encoded feature names and the profile (nil unless
// requested).
func ingestAndFit(ctx context.Context, path, protected string, ing ingestOpts, opts ifair.Options, wantProfile bool, profRows int, seed int64) (*ifair.Model, *mat.Dense, []string, *drift.Profile, error) {
	protIdx, err := parseProtectedIndices(protected)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	defer f.Close()

	var builder *drift.ProfileBuilder
	cfg := ingest.Config{
		Dir:        ing.dir,
		Schema:     ingest.Schema{ProtectedIndex: protIdx},
		ShardRows:  ing.shardRows,
		MaxBadRows: ing.maxBad,
		Resume:     ing.resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if wantProfile {
		builder = drift.NewProfileBuilder(0, profRows, seed)
		cfg.Observer = builder
	}
	res, err := ingest.Run(ctx, f, cfg)
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintf(os.Stderr, "ingest: interrupted; durable shards are kept in %s — rerun with -resume-ingest to continue\n", ing.dir)
		}
		return nil, nil, nil, nil, err
	}
	resumed := ""
	if res.Resumed {
		resumed = fmt.Sprintf("; resumed a durable prefix of %d input row(s)", res.Skipped)
	}
	fmt.Fprintf(os.Stderr, "ingest: %d good row(s) in %d shard(s), %d quarantined (see %s)%s\n",
		res.GoodRows, res.Shards, res.BadRows, filepath.Join(ing.dir, "quarantine.log"), resumed)

	st, err := ingest.OpenStream(ing.dir, nil)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	opts.Protected = st.ProtectedCols()
	model, x, err := ifair.FitStreamContext(ctx, st, opts)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	var prof *drift.Profile
	if builder != nil {
		means, stds := st.MeanStd()
		if prof, err = builder.Build(means, stds); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	return model, x, st.FeatureNames(), prof, nil
}

// parseProtectedIndices parses the -protected flag's comma-separated
// zero-based column indices.
func parseProtectedIndices(protected string) ([]int, error) {
	if protected == "" {
		return nil, nil
	}
	var idx []int
	for _, part := range strings.Split(protected, ",") {
		i, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("invalid protected index %q: %w", part, err)
		}
		idx = append(idx, i)
	}
	return idx, nil
}

// loadCSV reads a CSV with a header row through the same row validator
// as -ingest (internal/ingest's Layout.EncodeRow) and standardises
// columns to unit variance, matching the preprocessing of Sec. V-B.
func loadCSV(path, protected string) (*mat.Dense, []int, []string, error) {
	protIdx, err := parseProtectedIndices(protected)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, nil, err
	}
	defer f.Close()

	r := csv.NewReader(f)
	r.FieldsPerRecord = -1 // arity is checked per row, with row numbers
	rows, err := r.ReadAll()
	if err != nil {
		return nil, nil, nil, err
	}
	if len(rows) < 2 {
		return nil, nil, nil, fmt.Errorf("%s: need a header row and at least one data row", path)
	}
	lay, err := (&ingest.Schema{ProtectedIndex: protIdx}).Resolve(rows[0])
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	data := make([][]float64, len(rows)-1)
	for i, rec := range rows[1:] {
		data[i] = make([]float64, lay.Cols())
		if _, _, _, err := lay.EncodeRow(rec, data[i]); err != nil {
			return nil, nil, nil, fmt.Errorf("%s: row %d: %w", path, i+2, err)
		}
	}
	stats.Standardize(data)
	return mat.FromRows(data), lay.ProtectedCols(), lay.Names(), nil
}

func writeCSV(w io.Writer, header []string, x *mat.Dense) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, x.Cols())
	for i := 0; i < x.Rows(); i++ {
		for j, v := range x.Row(i) {
			row[j] = strconv.FormatFloat(v, 'g', 8, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
