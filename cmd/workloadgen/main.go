// Command workloadgen emits workload traces in the mnemo-workload v1 csv
// format, either from the paper's Table III presets or from custom
// distribution parameters, for consumption by cmd/mnemo or external
// tools.
//
// Usage:
//
//	workloadgen [flags]
//
//	-workload name    Table III preset (plus hot_drift/phase_shift), or
//	                  "custom"
//	-dist name        custom: uniform|zipfian|scrambled_zipfian|hotspot|
//	                  latest|hot_set_drift|phase_change
//	-drift kind       shorthand for a drifting trace: "hotset" (a hot
//	                  window sweeping the key space once, shaped by
//	                  -hotset/-hotops) or "phase" (-phases re-scrambled
//	                  zipfian phases); prints a drift-layout preview line
//	-phases n         phase count for -drift phase / -dist phase_change
//	                  (default 4)
//	-theta t          custom: zipfian skew (default 0.99)
//	-hotset f         custom: hotspot key fraction (default 0.2)
//	-hotops f         custom: hotspot op fraction (default 0.9)
//	-read r           custom: read ratio in [0,1] (default 1.0)
//	-sizes name       custom: thumbnail|text_post|photo_caption|
//	                  trending_preview_mix|fixed_1kb|fixed_10kb|fixed_100kb
//	-keys n           key-space size (default 10000; tested to 10M keys)
//	-requests n       trace length (default 100000)
//	-downsample k     keep 1 request per block of k (default 1 = all)
//	-shards n         print the consistent-hash cluster layout of the
//	                  trace across n shards on stderr (key/byte/request
//	                  balance and hot-set spread; 0 = skip)
//	-seed n           deterministic seed
//	-o file           destination ('-' = stdout). A path ending in
//	                  .mtrc writes the binary streaming trace format
//	                  instead of CSV; generated drift/custom traces
//	                  are then produced straight to disk in O(frame)
//	                  memory, so -requests 100000000 works fine.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mnemo/internal/kvstore"
	"mnemo/internal/registry"
	"mnemo/internal/report"
	"mnemo/internal/shard"
	"mnemo/internal/trace"
	"mnemo/internal/ycsb"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "workloadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("workloadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "trending", "Table III preset name or 'custom'")
		distName   = fs.String("dist", "hotspot", "custom distribution")
		drift      = fs.String("drift", "", "drifting trace shorthand: 'hotset' or 'phase'")
		phases     = fs.Int("phases", ycsb.DefaultPhases, "phase count for -drift phase / -dist phase_change")
		theta      = fs.Float64("theta", 0.99, "zipfian skew")
		hotset     = fs.Float64("hotset", 0.2, "hotspot key fraction")
		hotops     = fs.Float64("hotops", 0.9, "hotspot op fraction")
		readRatio  = fs.Float64("read", 1.0, "read ratio")
		sizes      = fs.String("sizes", "thumbnail", "record size distribution")
		keys       = fs.Int("keys", ycsb.DefaultKeys, "key space size")
		requests   = fs.Int("requests", ycsb.DefaultRequests, "request count")
		downsample = fs.Int("downsample", 1, "keep one request per block of this size")
		shards     = fs.Int("shards", 0, "print the trace's consistent-hash layout across `n` shards on stderr (0 = skip)")
		seed       = fs.Int64("seed", 42, "deterministic seed")
		outPath    = fs.String("o", "-", "destination file ('-' = stdout)")
		describe   = fs.Bool("describe", false, "print trace statistics on stderr (hot sets, skew)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *keys <= 0 {
		return fmt.Errorf("keys %d must be positive", *keys)
	}
	if *requests <= 0 {
		return fmt.Errorf("requests %d must be positive", *requests)
	}
	if *phases < 2 {
		return fmt.Errorf("phases %d must be ≥ 2", *phases)
	}
	if *downsample < 1 {
		return fmt.Errorf("downsample factor %d must be ≥ 1", *downsample)
	}
	// A .mtrc destination selects the binary streaming format. Custom and
	// drift specs then generate straight to disk (O(frame) memory);
	// presets and downsampled traces materialize first and are spilled.
	streamOut := *outPath != "-" && strings.HasSuffix(*outPath, ".mtrc")
	streamGen := streamOut && *downsample == 1
	written := false
	var w *ycsb.Workload
	if *drift != "" {
		dn := ""
		switch *drift {
		case "hotset":
			dn = "hot_set_drift"
		case "phase":
			dn = "phase_change"
		default:
			return fmt.Errorf("unknown drift kind %q (want hotset or phase)", *drift)
		}
		spec, err := buildSpec(*workload, dn, *theta, *hotset, *hotops, *readRatio, *sizes, *phases, *seed)
		if err != nil {
			return err
		}
		spec.Keys = *keys
		spec.Requests = *requests
		if streamGen {
			w, err = trace.GenerateFile(spec, *outPath)
			written = true
		} else {
			w, err = ycsb.Generate(spec)
		}
		if err != nil {
			return err
		}
		renderDriftLayout(stderr, w, *phases)
	} else if *workload == "custom" {
		spec, err := buildSpec(*workload, *distName, *theta, *hotset, *hotops, *readRatio, *sizes, *phases, *seed)
		if err != nil {
			return err
		}
		spec.Keys = *keys
		spec.Requests = *requests
		if streamGen {
			w, err = trace.GenerateFile(spec, *outPath)
			written = true
		} else {
			w, err = ycsb.Generate(spec)
		}
		if err != nil {
			return err
		}
		if spec.Dist.Kind == ycsb.HotSetDrift || spec.Dist.Kind == ycsb.PhaseChange {
			renderDriftLayout(stderr, w, *phases)
		}
	} else {
		// Presets resolve through the shared registry helper, so the same
		// names (including ycsb_f) work here, in cmd/mnemo and in the API.
		var err error
		w, err = registry.ResolveWorkload(*workload, *seed, *keys, *requests)
		if err != nil {
			return err
		}
	}
	if *downsample > 1 {
		w = w.Downsample(*downsample, *seed)
	}

	if *describe {
		if err := ycsb.Describe(w).Render(stderr); err != nil {
			return err
		}
	}
	if *shards < 0 {
		return fmt.Errorf("shards %d must be non-negative", *shards)
	}
	if *shards >= 1 {
		if err := renderShardLayout(stderr, w, *shards); err != nil {
			return err
		}
	}

	if streamOut {
		if !written {
			if err := trace.WriteWorkload(w, *outPath); err != nil {
				return err
			}
		}
	} else {
		var out io.Writer = stdout
		if *outPath != "-" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := w.WriteCSV(out); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "wrote %s: %d records, %d ops, dataset %d bytes\n",
		w.Spec.Name, len(w.Dataset.Records), w.RequestCount(), w.Dataset.TotalBytes)
	return nil
}

// renderShardLayout prints how a consistent-hash ring of n shards would
// partition the trace: per-shard key, byte and request balance, plus
// how many distinct shards serve the hottest 64 keys — the sanity check
// that a skewed hot set really spans shard boundaries before anyone
// provisions a cluster for the trace.
func renderShardLayout(stderr io.Writer, w *ycsb.Workload, n int) error {
	part, err := shard.For(w, n, 0, false)
	if err != nil {
		return err
	}
	t := report.NewTable(fmt.Sprintf("Cluster layout — %d consistent-hash shards", n),
		"shard", "keys", "bytes", "requests", "req share")
	total := w.RequestCount()
	if total == 0 {
		total = 1
	}
	for s := 0; s < n; s++ {
		sub := part.Subs[s]
		t.AddRow(s, len(sub.W.Dataset.Records), report.FormatBytes(sub.W.Dataset.TotalBytes),
			sub.Requests, fmt.Sprintf("%.1f%%", float64(sub.Requests)/float64(total)*100))
	}
	if err := t.Render(stderr); err != nil {
		return err
	}
	reads := make([]int, len(w.Dataset.Records))
	if err := w.ForEachOp(func(key int, _ kvstore.OpKind) { reads[key]++ }); err != nil {
		return err
	}
	const hot = 64
	spread := part.HotShardSpread(reads, make([]int, len(reads)), hot)
	fmt.Fprintf(stderr, "hottest %d keys span %d of %d shards\n", hot, spread, n)
	return nil
}

// renderDriftLayout previews the non-stationarity of a drifting trace
// on stderr: how fast the hot set moves relative to the trace — and to
// the 4096-op replay blocks adaptive epochs are rounded to — so the
// epoch length for an adaptive replay can be picked before running one.
func renderDriftLayout(stderr io.Writer, w *ycsb.Workload, phases int) {
	keys, requests := len(w.Dataset.Records), w.Spec.Requests
	if requests <= 0 {
		requests = w.RequestCount()
	}
	switch w.Spec.Dist.Kind {
	case ycsb.HotSetDrift:
		hot := int(w.Spec.Dist.HotSetFraction * float64(keys))
		fmt.Fprintf(stderr,
			"drift layout: hot window of %d keys (%.0f%% of ops) sweeps all %d keys once over %d requests (~%.1f keys per 4096-op block)\n",
			hot, w.Spec.Dist.HotOpnFraction*100, keys, requests,
			float64(keys)*4096/float64(requests))
	case ycsb.PhaseChange:
		if p := w.Spec.Dist.Phases; p > 0 {
			phases = p
		}
		fmt.Fprintf(stderr,
			"drift layout: %d zipfian phases × %d requests, hot set re-scrambled at every phase boundary\n",
			phases, requests/phases)
	}
}

// buildSpec assembles the custom-workload spec; presets resolve through
// registry.ResolveWorkload instead.
func buildSpec(_, distName string, theta, hotset, hotops, readRatio float64, sizes string, phases int, seed int64) (ycsb.Spec, error) {
	var dk ycsb.DistKind
	switch distName {
	case "uniform":
		dk = ycsb.Uniform
	case "zipfian":
		dk = ycsb.Zipfian
	case "scrambled_zipfian":
		dk = ycsb.ScrambledZipfian
	case "hotspot":
		dk = ycsb.Hotspot
	case "latest":
		dk = ycsb.Latest
	case "hot_set_drift":
		dk = ycsb.HotSetDrift
	case "phase_change":
		dk = ycsb.PhaseChange
	default:
		return ycsb.Spec{}, fmt.Errorf("unknown distribution %q", distName)
	}
	var sk ycsb.SizeKind
	switch sizes {
	case "thumbnail":
		sk = ycsb.SizeThumbnail
	case "text_post":
		sk = ycsb.SizeTextPost
	case "photo_caption":
		sk = ycsb.SizePhotoCaption
	case "trending_preview_mix":
		sk = ycsb.SizeTrendingPreview
	case "fixed_1kb":
		sk = ycsb.SizeFixed1KB
	case "fixed_10kb":
		sk = ycsb.SizeFixed10KB
	case "fixed_100kb":
		sk = ycsb.SizeFixed100KB
	default:
		return ycsb.Spec{}, fmt.Errorf("unknown size distribution %q", sizes)
	}
	return ycsb.Spec{
		Name:      "custom_" + distName,
		Dist:      ycsb.DistSpec{Kind: dk, Theta: theta, HotSetFraction: hotset, HotOpnFraction: hotops, Phases: phases},
		ReadRatio: readRatio,
		Sizes:     sk,
		Seed:      seed,
		UseCase:   "user-defined workload",
	}, nil
}
