package mnemo_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"mnemo"
)

// Every example below runs under go test, so its output is checked. The
// profiling examples disable measurement noise (NoiseSigma: -1) and
// scale their workloads down with WorkloadByNameSized, so each runs in
// milliseconds; `go test -run Example -v .` prints them all.

// The canonical session: profile a Table III workload, ask for the
// cheapest sizing within a 10% slowdown budget. Noise is disabled so the
// output is reproducible.
func Example() {
	w, err := mnemo.WorkloadByName("trending", 42)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mnemo.Profile(w, mnemo.Options{
		Store:      mnemo.RedisLike,
		Seed:       42,
		SLO:        0.10,
		NoiseSigma: -1, // deterministic for the example
	})
	if err != nil {
		log.Fatal(err)
	}
	a := rep.Advice
	fmt.Printf("cost factor %.2f of DRAM-only (%d of %d keys in FastMem)\n",
		a.Point.CostFactor, a.Point.KeysInFast, len(w.Dataset.Records))
	// Output:
	// cost factor 0.36 of DRAM-only (2005 of 10000 keys in FastMem)
}

// Re-asking the advisor with different budgets reuses the curve; no
// further executions happen.
func ExampleAdvise() {
	w, err := mnemo.WorkloadByName("trending", 42)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 42, NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	for _, slo := range []float64{0.02, 0.10, 0.50} {
		a, err := mnemo.Advise(rep.Curve, slo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%.0f%% slowdown -> cost %.2f\n", slo*100, a.Point.CostFactor)
	}
	// Output:
	// 2% slowdown -> cost 0.54
	// 10% slowdown -> cost 0.36
	// 50% slowdown -> cost 0.20
}

// The cost model alone: the paper's §III example — FastMem sized to 20%
// of the dataset bytes at p = 0.2 costs 36% of a DRAM-only system.
func ExampleCostReduction() {
	fmt.Printf("R = %.2f\n", mnemo.CostReduction(20, 100, 0.2))
	// Output:
	// R = 0.36
}

// Importing a production trace from a Redis MONITOR capture.
func ExampleLoadRedisMonitor() {
	capture := `OK
1530699284.926984 [0 127.0.0.1:51442] "SET" "user:1001" "0123456789"
1530699284.930000 [0 127.0.0.1:51442] "GET" "user:1001"
1530699285.000000 [0 127.0.0.1:51442] "GET" "user:1001"
`
	w, err := mnemo.LoadRedisMonitor(strings.NewReader(capture), 128)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d key, %d ops, %.0f%% reads\n",
		len(w.Dataset.Records), w.RequestCount(), w.ReadFraction()*100)
	// Output:
	// 1 key, 3 ops, 67% reads
}

// The 30-second tour: profile the paper's Trending workload on the
// Redis-like store and read the advised FastMem sizing and the head of
// the cost/performance curve (the paper's three-column output).
func ExampleProfile() {
	// Table III's Trending: a hotspot read-only trace over ≈100 KB
	// thumbnails, scaled to 1 000 keys and 10 000 requests.
	w, err := mnemo.WorkloadByNameSized("trending", 42, 1_000, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	// Two baseline executions on the emulated hybrid-memory testbed,
	// the analytical estimate, and the advisor under a 10% slowdown SLO.
	rep, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 42, SLO: 0.10, NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	b := rep.Baselines
	fmt.Printf("%s: %d keys, %d requests\n", rep.Workload, len(w.Dataset.Records), w.RequestCount())
	fmt.Printf("FastMem-only %.3f s, SlowMem-only %.3f s simulated (%.2fx slower)\n",
		float64(b.Fast.Runtime)/float64(mnemo.Second), float64(b.Slow.Runtime)/float64(mnemo.Second), b.SlowdownAllSlow())
	a := rep.Advice
	fmt.Printf("advice: %d keys (%.1f of %.1f MiB) in FastMem, cost %.3f of DRAM-only\n",
		a.Point.KeysInFast, float64(a.Point.FastBytes)/(1<<20), float64(w.Dataset.TotalBytes)/(1<<20), a.Point.CostFactor)
	fmt.Println("keys_in_fast cost_factor est_ops/s")
	for k := 0; k < len(rep.Curve.Points); k += 250 {
		p := rep.Curve.Points[k]
		fmt.Printf("%12d %11.3f %9.0f\n", p.KeysInFast, p.CostFactor, p.EstThroughputOps)
	}
	// Output:
	// trending: 1000 keys, 10000 requests
	// FastMem-only 1.215 s, SlowMem-only 1.491 s simulated (1.23x slower)
	// advice: 142 keys (14.8 of 104.6 MiB) in FastMem, cost 0.313 of DRAM-only
	// keys_in_fast cost_factor est_ops/s
	//            0       0.200      6706
	//          250       0.400      7976
	//          500       0.605      8153
	//          750       0.800      8225
	//         1000       1.000      8229
}

// The paper's Fig 9 workflow: every Table III workload on every store
// engine under a 10% slowdown SLO, showing where hybrid memory saves
// money and where it does not. Memcached-like overlaps memory stalls
// across worker threads, so it runs from the cheap tier alone (cost
// 0.20); DynamoDB-like amplifies every record access, so it tolerates the
// least SlowMem.
func ExampleWorkloadNames() {
	fmt.Printf("%-17s %8s %8s %8s\n", "workload", "redis", "memcache", "dynamo")
	for _, name := range mnemo.WorkloadNames() {
		w, err := mnemo.WorkloadByNameSized(name, 42, 1_000, 10_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s", name)
		for _, e := range mnemo.Engines() {
			rep, err := mnemo.Profile(w, mnemo.Options{Store: e, Seed: 42, SLO: 0.10, NoiseSigma: -1})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %8.3f", rep.Advice.Point.CostFactor)
		}
		fmt.Println()
	}
	// Output:
	// workload             redis memcache   dynamo
	// trending             0.313    0.200    0.520
	// news_feed            0.563    0.200    0.932
	// timeline             0.215    0.200    0.508
	// edit_thumbnail       0.200    0.200    0.480
	// trending_preview     0.200    0.200    0.357
}

// The paper's Fig 1: a least-squares fit of 2018 cloud VM catalogs shows
// memory is most of the price of a Memory Optimized VM.
func ExampleCloudMemoryShares() {
	shares, err := mnemo.CloudMemoryShares()
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range shares {
		fmt.Printf("%-5s %-17s %4.1f%%\n", s.Provider, s.Instance, s.MemoryShare*100)
	}
	// Output:
	// aws   cache.r5.12xlarge 55.1%
	// aws   cache.r5.24xlarge 55.1%
	// aws   cache.r5.2xlarge  55.0%
	// aws   cache.r5.4xlarge  55.1%
	// aws   cache.r5.large    54.3%
	// aws   cache.r5.xlarge   54.8%
	// azure E16v3             79.8%
	// azure E2v3              79.8%
	// azure E32v3             79.8%
	// azure E4v3              79.8%
	// azure E64v3             74.8%
	// azure E8v3              79.8%
	// azure M128ms            89.9%
	// azure M128s             79.9%
	// azure M64ms             88.6%
	// azure M64s              79.4%
	// gcp   n1-megamem-96     73.2%
	// gcp   n1-ultramem-160   83.1%
	// gcp   n1-ultramem-40    83.1%
	// gcp   n1-ultramem-80    83.1%
}

// From hardware quotes to a cloud bill: derive the price factor p from
// per-GB prices, size a cache with it, and project the saving on a VM
// whose memory is 65% of its price (see ExampleCloudMemoryShares).
func ExamplePriceFactorFromHardware() {
	p, err := mnemo.PriceFactorFromHardware(1.6, 8.0) // NVM $1.6/GB, DRAM $8/GB
	if err != nil {
		log.Fatal(err)
	}
	w, err := mnemo.WorkloadByNameSized("trending", 7, 1_000, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 7, SLO: 0.10, PriceFactor: p, NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	const vmHourly, memoryShare = 6.30, 0.65 // $/h, and memory's share of it
	memHourly := vmHourly * memoryShare
	hybrid := memHourly * rep.Advice.Point.CostFactor
	fmt.Printf("p = %.2f, advised memory cost %.1f%% of DRAM-only\n", p, rep.Advice.Point.CostFactor*100)
	fmt.Printf("memory spend $%.2f/h -> $%.2f/h, saving %.0f%% of the VM bill\n",
		memHourly, hybrid, (memHourly-hybrid)/vmHourly*100)
	// Output:
	// p = 0.20, advised memory cost 31.0% of DRAM-only
	// memory spend $4.09/h -> $1.27/h, saving 45% of the VM bill
}

// One profiling session, many answers: the MnemoT curve is computed
// once, then the advisor prices a sweep of slowdown budgets, and the
// cost model re-prices the 10% sizing at other SlowMem price points —
// no further executions happen.
func ExampleAdvise_priceSweep() {
	w, err := mnemo.WorkloadByNameSized("timeline", 11, 1_000, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 11, Policy: "mnemot", NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	for _, slo := range []float64{0.01, 0.05, 0.10, 0.50} {
		a, err := mnemo.Advise(rep.Curve, slo)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("slowdown %2.0f%%: cost %.3f, %d keys in FastMem\n", slo*100, a.Point.CostFactor, a.Point.KeysInFast)
	}
	a, err := mnemo.Advise(rep.Curve, 0.10)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range []float64{0.1, 0.3, 0.5} {
		fmt.Printf("p = %.1f: cost %.3f\n", p, mnemo.CostReduction(a.Point.FastBytes, w.Dataset.TotalBytes, p))
	}
	// Output:
	// slowdown  1%: cost 0.491, 389 keys in FastMem
	// slowdown  5%: cost 0.260, 91 keys in FastMem
	// slowdown 10%: cost 0.206, 9 keys in FastMem
	// slowdown 50%: cost 0.200, 0 keys in FastMem
	// p = 0.1: cost 0.107
	// p = 0.3: cost 0.305
	// p = 0.5: cost 0.504
}

// The paper's §V downsampling: profiling a sampled trace keeps the
// advised sizing close while the measured work shrinks by the factor.
func ExampleWorkload_Downsample() {
	full, err := mnemo.WorkloadByNameSized("trending", 23, 1_000, 20_000)
	if err != nil {
		log.Fatal(err)
	}
	for _, factor := range []int{1, 2, 5, 10} {
		// One request survives per block of factor requests, so the key
		// distribution and the ordering are kept.
		w := full.Downsample(factor, int64(factor))
		rep, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 23, SLO: 0.10, NoiseSigma: -1})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("factor %2d: %5d requests, cost %.3f\n", factor, w.RequestCount(), rep.Advice.Point.CostFactor)
	}
	// Output:
	// factor  1: 20000 requests, cost 0.316
	// factor  2: 10000 requests, cost 0.313
	// factor  5:  4000 requests, cost 0.309
	// factor 10:  2000 requests, cost 0.309
}

// A parallel sweep over custom trace shapes: one spec per request
// distribution, each profiled on every engine. Cells come back in input
// order whatever the worker count, each with its report or its error.
func ExampleProfileMatrix() {
	kinds := []struct {
		name string
		dist mnemo.DistSpec
	}{
		{"uniform", mnemo.DistSpec{Kind: mnemo.Uniform}},
		{"zipfian", mnemo.DistSpec{Kind: mnemo.Zipfian}},
		{"scrambled", mnemo.DistSpec{Kind: mnemo.ScrambledZipfian}},
		{"hotspot", mnemo.DistSpec{Kind: mnemo.Hotspot, HotSetFraction: 0.1, HotOpnFraction: 0.9}},
		{"latest", mnemo.DistSpec{Kind: mnemo.Latest}},
		{"drift", mnemo.DistSpec{Kind: mnemo.HotSetDrift, HotSetFraction: 0.1, HotOpnFraction: 0.9}},
		{"phases", mnemo.DistSpec{Kind: mnemo.PhaseChange}},
	}
	req := mnemo.MatrixRequest{Options: mnemo.Options{Seed: 5, SLO: 0.10, NoiseSigma: -1}}
	for _, k := range kinds {
		req.Specs = append(req.Specs, mnemo.WorkloadSpec{
			Name: k.name, Keys: 1_000, Requests: 10_000, Dist: k.dist,
			ReadRatio: 0.95, Sizes: mnemo.SizeThumbnail, Seed: 5,
		})
	}
	cells, err := mnemo.ProfileMatrix(req)
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cells {
		if c.Err != nil {
			log.Fatal(c.Err)
		}
		if c.Engine == mnemo.RedisLike {
			fmt.Printf("%-9s", c.Workload)
		}
		fmt.Printf(" %s %.3f", c.Engine, c.Report.Advice.Point.CostFactor)
		if c.Engine == mnemo.DynamoLike {
			fmt.Println()
		}
	}
	// Output:
	// uniform   redislike 0.741 memcachedlike 0.200 dynamolike 0.953
	// zipfian   redislike 0.224 memcachedlike 0.200 dynamolike 0.644
	// scrambled redislike 0.217 memcachedlike 0.200 dynamolike 0.508
	// hotspot   redislike 0.200 memcachedlike 0.200 dynamolike 0.285
	// latest    redislike 0.553 memcachedlike 0.200 dynamolike 0.929
	// drift     redislike 0.210 memcachedlike 0.200 dynamolike 0.896
	// phases    redislike 0.309 memcachedlike 0.200 dynamolike 0.774
}

// Sizing against the SLAs operators sign: an absolute average-latency
// budget, then a p99 check of the chosen sizing with the tail-estimation
// extension (the paper's model stops at averages).
func ExampleAdviseLatency() {
	w, err := mnemo.WorkloadByNameSized("trending", 31, 1_000, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := mnemo.Profile(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 31, NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FastMem-only average %.1f µs\n", rep.Baselines.Fast.AvgNs/1000)
	for _, budgetUs := range []float64{100, 120, 140, 160} {
		a, err := mnemo.AdviseLatency(rep.Curve, budgetUs*1000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("within %.0f µs: cost %.3f, %d keys in FastMem, satisfiable %v\n",
			budgetUs, a.Point.CostFactor, a.Point.KeysInFast, a.Satisfiable)
	}
	a, err := mnemo.AdviseLatency(rep.Curve, 140*1000)
	if err != nil {
		log.Fatal(err)
	}
	tails, err := mnemo.EstimateTails(rep, []int{0, a.Point.KeysInFast, len(w.Dataset.Records)})
	if err != nil {
		log.Fatal(err)
	}
	for _, tp := range tails {
		fmt.Printf("%4d keys in FastMem: p50 %.1f µs, p99 %.1f µs\n", tp.KeysInFast, tp.P50Ns/1000, tp.P99Ns/1000)
	}
	// Output:
	// FastMem-only average 125.0 µs
	// within 100 µs: cost 1.000, 1000 keys in FastMem, satisfiable false
	// within 120 µs: cost 1.000, 1000 keys in FastMem, satisfiable false
	// within 140 µs: cost 0.300, 123 keys in FastMem, satisfiable true
	// within 160 µs: cost 0.200, 0 keys in FastMem, satisfiable true
	//    0 keys in FastMem: p50 146.2 µs, p99 342.5 µs
	//  123 keys in FastMem: p50 127.3 µs, p99 316.4 µs
	// 1000 keys in FastMem: p50 119.9 µs, p99 264.8 µs
}

// Several tiering policies on one measurement: a Session measures the
// Fast/Slow baselines once, and each policy adds only its ordering and
// estimate. An existing tiering tool's key list takes part through
// ExternalPolicy (here a deliberately naive one: the first 100 keys).
func ExampleSession_Compare() {
	w, err := mnemo.WorkloadByNameSized("trending", 42, 1_000, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	session, err := mnemo.NewSession(w, mnemo.Options{Store: mnemo.RedisLike, Seed: 42, NoiseSigma: -1})
	if err != nil {
		log.Fatal(err)
	}
	var policies []mnemo.TieringPolicy
	for _, name := range []string{"touch", "mnemot", "tahoe", "freqdecay"} {
		p, err := mnemo.PolicyByName(name, 42)
		if err != nil {
			log.Fatal(err)
		}
		policies = append(policies, p)
	}
	var naive []string
	for _, rec := range w.Dataset.Records[:100] {
		naive = append(naive, rec.Key)
	}
	policies = append(policies, mnemo.ExternalPolicy(naive))
	reports, err := session.Compare(context.Background(), 0.10, policies...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d policies, %d baseline measurement\n", len(reports), session.MeasureCount())
	fmt.Println("policy,keys_in_fast,cost_factor,est_throughput_ops")
	for _, rep := range reports {
		a := rep.Advice.Point
		fmt.Printf("%s,%d,%.4f,%.0f\n", rep.Policy, a.KeysInFast, a.CostFactor, a.EstThroughputOps)
	}
	// Output:
	// 5 policies, 1 baseline measurement
	// policy,keys_in_fast,cost_factor,est_throughput_ops
	// touch,142,0.3130,7483
	// mnemot,121,0.2771,7485
	// tahoe,115,0.2926,7484
	// freqdecay,120,0.2980,7488
	// external,127,0.3008,7484
}

// The paper's deployment mode 2b: an existing tiering solution decides
// which keys go to DRAM, and Mnemo turns its priority list into a
// cost/performance curve. Keys the list leaves out follow in dataset
// order.
func ExampleProfileWithTiering() {
	w, err := mnemo.WorkloadByNameSized("trending", 42, 1_000, 10_000)
	if err != nil {
		log.Fatal(err)
	}
	opts := mnemo.Options{Store: mnemo.RedisLike, Seed: 42, SLO: 0.10, NoiseSigma: -1}
	// The tool's list: the dataset's last 200 keys, a placement blind to
	// the trace. Its advice costs more than Mnemo's own ordering.
	var tool []string
	for i := len(w.Dataset.Records) - 1; i >= 800; i-- {
		tool = append(tool, w.Dataset.Records[i].Key)
	}
	external, err := mnemo.ProfileWithTiering(w, tool, opts)
	if err != nil {
		log.Fatal(err)
	}
	own, err := mnemo.Profile(w, opts)
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range []*mnemo.Report{external, own} {
		fmt.Printf("%-8s cost %.3f with %d keys in FastMem\n", rep.Policy, rep.Advice.Point.CostFactor, rep.Advice.Point.KeysInFast)
	}
	// Output:
	// external cost 0.454 with 321 keys in FastMem
	// touch    cost 0.313 with 142 keys in FastMem
}

// The registered tiering policies and their tunable parameters: any name
// goes in Options.Policy, any parameter in Options.PolicyParams.
func ExamplePolicies() {
	for _, p := range mnemo.Policies() {
		fmt.Print(p.Name)
		for _, prm := range p.Params {
			fmt.Printf(" %s=%g [%g,%g]", prm.Name, prm.Default, prm.Min, prm.Max)
		}
		fmt.Println()
	}
	// Output:
	// adaptive-freq decay=0.5 [0.01,1]
	// adaptive-mnemot
	// freqdecay decay=0.5 [0.01,1] epochs=8 [1,64]
	// knapsack anchor=0 [0,1] rungs=3 [1,6]
	// mnemot
	// pagesample rate=4000 [1,1.048576e+06]
	// tahoe
	// touch
}

// The built-in workloads — the paper's Table III traces, the YCSB core
// suite and the two drift traces — at a chosen size. YCSB-F's
// read-modify-writes issue two requests each.
func ExampleWorkloadByNameSized() {
	for _, name := range mnemo.AllWorkloadNames() {
		w, err := mnemo.WorkloadByNameSized(name, 1, 500, 2_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-17s %d keys, %5d requests, %3.0f%% reads\n",
			name, len(w.Dataset.Records), w.RequestCount(), w.ReadFraction()*100)
	}
	// Output:
	// trending          500 keys,  2000 requests, 100% reads
	// news_feed         500 keys,  2000 requests, 100% reads
	// timeline          500 keys,  2000 requests, 100% reads
	// edit_thumbnail    500 keys,  2000 requests,  51% reads
	// trending_preview  500 keys,  2000 requests, 100% reads
	// ycsb_a            500 keys,  2000 requests,  51% reads
	// ycsb_b            500 keys,  2000 requests,  96% reads
	// ycsb_c            500 keys,  2000 requests, 100% reads
	// ycsb_d            500 keys,  2000 requests,  96% reads
	// ycsb_f            500 keys,  2985 requests,  67% reads
	// hot_drift         500 keys,  2000 requests, 100% reads
	// phase_shift       500 keys,  2000 requests, 100% reads
}

// A custom workload: one spec per record-size distribution (the paper's
// Fig 4), summarized without running anything.
func ExampleGenerateWorkload() {
	sizes := []mnemo.SizeKind{
		mnemo.SizeThumbnail, mnemo.SizeTextPost, mnemo.SizePhotoCaption, mnemo.SizeTrendingPreview,
		mnemo.SizeFixed1KB, mnemo.SizeFixed10KB, mnemo.SizeFixed100KB,
	}
	for _, size := range sizes {
		w, err := mnemo.GenerateWorkload(mnemo.WorkloadSpec{
			Name: "custom", Keys: 500, Requests: 1_000,
			Dist:      mnemo.DistSpec{Kind: mnemo.Zipfian},
			ReadRatio: 0.9, Sizes: size, Seed: 3,
		})
		if err != nil {
			log.Fatal(err)
		}
		d := mnemo.DescribeWorkload(w)
		fmt.Printf("%-20v mean %6.0f B, range [%d, %d]\n", size, d.MeanRecord, d.MinRecord, d.MaxRecord)
	}
	// Output:
	// thumbnail            mean 107110 B, range [36319, 308780]
	// text_post            mean  11117 B, range [2700, 42325]
	// photo_caption        mean   1137 B, range [232, 4955]
	// trending_preview_mix mean  39008 B, range [193, 242423]
	// fixed_1kb            mean   1024 B, range [1024, 1024]
	// fixed_10kb           mean  10240 B, range [10240, 10240]
	// fixed_100kb          mean 102400 B, range [102400, 102400]
}
