package baselines

import (
	"fmt"

	"mnemo/internal/client"
	"mnemo/internal/linalg"
	"mnemo/internal/server"
	"mnemo/internal/simclock"
	"mnemo/internal/ycsb"
)

// TahoeModel is the pre-trained regression Tahoe-style profilers use to
// infer the FastMem baseline from a SlowMem execution. Training collects
// (SlowMem, FastMem) runtime pairs for a set of training workloads — each
// pair costs two monitored executions, the hidden expense Table IV calls
// out — and fits
//
//	fastPerOpNs ≈ β0 + β1·slowPerOpNs + β2·avgRecordBytes
//	            + β3·readFrac + β4·(avgRecordBytes·readFrac)
//
// by least squares. The per-access monitoring during training runs is
// charged at the instrumentation slowdown.
type TahoeModel struct {
	beta         []float64
	workloads    int
	executions   int
	trainingTime simclock.Duration
}

// features builds the regression row for a workload/slow-run pair.
func features(w *ycsb.Workload, slow client.RunStats) []float64 {
	avgBytes := float64(w.Dataset.TotalBytes) / float64(len(w.Dataset.Records))
	readFrac := w.ReadFraction()
	slowPerOp := float64(slow.Runtime.Nanoseconds()) / float64(slow.Requests)
	return []float64{1, slowPerOp, avgBytes, readFrac, avgBytes * readFrac}
}

// TrainTahoe builds the model from a grid of training workloads spanning
// record sizes and read ratios, executed on the given engine
// configuration. More training workloads improve the fit and inflate the
// collection cost — exactly the trade Tahoe's authors report.
func TrainTahoe(cfg server.Config, seed int64, trainingKeys, trainingRequests int) (*TahoeModel, error) {
	if trainingKeys <= 0 || trainingRequests <= 0 {
		return nil, fmt.Errorf("baselines: training sizes must be positive")
	}
	sizeKinds := []ycsb.SizeKind{ycsb.SizeFixed1KB, ycsb.SizeFixed10KB, ycsb.SizeFixed100KB,
		ycsb.SizeThumbnail, ycsb.SizeTextPost}
	ratios := []float64{0, 0.5, 1}
	var rows [][]float64
	var targets []float64
	m := &TahoeModel{}
	for i, sk := range sizeKinds {
		for j, rr := range ratios {
			spec := ycsb.Spec{
				Name: fmt.Sprintf("tahoe_train_%d_%d", i, j),
				Keys: trainingKeys, Requests: trainingRequests,
				Dist:      ycsb.DistSpec{Kind: ycsb.Uniform},
				ReadRatio: rr, Sizes: sk,
				Seed: seed + int64(i*10+j),
			}
			w, err := ycsb.Generate(spec)
			if err != nil {
				return nil, err
			}
			sts, err := execute(cfg, w, server.AllSlow(), server.AllFast())
			if err != nil {
				return nil, err
			}
			slow, fast := sts[0], sts[1]
			rows = append(rows, features(w, slow))
			targets = append(targets, float64(fast.Runtime.Nanoseconds())/float64(fast.Requests))
			m.workloads++
			m.executions += 2
			// Both training executions run under monitoring.
			monitored := float64(slow.Runtime+fast.Runtime) * InstrumentationSlowdown
			m.trainingTime += simclock.FromNanos(monitored)
		}
	}
	beta, _, err := linalg.LeastSquares(linalg.FromRows(rows), targets)
	if err != nil {
		return nil, fmt.Errorf("baselines: training Tahoe model: %w", err)
	}
	m.beta = beta
	return m, nil
}

// InferFastRuntimeNs predicts the FastMem-only total runtime of the
// workload from its SlowMem execution.
func (m *TahoeModel) InferFastRuntimeNs(w *ycsb.Workload, slow client.RunStats) float64 {
	row := features(w, slow)
	perOp := 0.0
	for i, b := range m.beta {
		perOp += b * row[i]
	}
	if perOp < 0 {
		perOp = 0
	}
	return perOp * float64(slow.Requests)
}

// Workloads reports how many training workloads were used.
func (m *TahoeModel) Workloads() int { return m.workloads }

// Executions reports how many monitored training executions were run.
func (m *TahoeModel) Executions() int { return m.executions }

// TrainingTime reports the simulated cost of collecting training data.
func (m *TahoeModel) TrainingTime() simclock.Duration { return m.trainingTime }
