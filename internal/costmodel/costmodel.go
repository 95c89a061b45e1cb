// Package costmodel implements the two cost analyses of the paper:
//
//  1. The hybrid-memory cost reduction factor of Section II,
//     R(p) = (F + (C−F)·p) / C, where F is the FastMem byte capacity, C
//     the total dataset capacity, and p the per-byte price of SlowMem
//     relative to FastMem (fixed to 0.2 throughout the paper, after
//     Dulloor et al.'s NVM price estimates).
//
//  2. The cloud VM cost regression of the introduction (Fig 1): modelling
//     VMCost = vCPU·C + GB·M per provider and solving for C and M by
//     least squares over the provider's instance catalog, following Amur
//     et al. — which shows memory is 60–85% of the cost of
//     memory-optimized VMs.
package costmodel

import (
	"fmt"
	"sort"

	"mnemo/internal/linalg"
)

// DefaultPriceFactor is the paper's p = 0.2 (SlowMem is 5× cheaper per
// byte than FastMem).
const DefaultPriceFactor = 0.2

// CostReduction returns R(p) for a hybrid sizing holding fastBytes of the
// totalBytes dataset in FastMem. R(1) would mean SlowMem costs the same
// as FastMem; R(p)→p as FastMem→0. It panics on invalid inputs.
func CostReduction(fastBytes, totalBytes int64, p float64) float64 {
	if totalBytes <= 0 {
		panic(fmt.Sprintf("costmodel: total bytes %d must be positive", totalBytes))
	}
	if fastBytes < 0 || fastBytes > totalBytes {
		panic(fmt.Sprintf("costmodel: fast bytes %d outside [0,%d]", fastBytes, totalBytes))
	}
	if !(p > 0 && p <= 1) { // NaN fails too
		panic(fmt.Sprintf("costmodel: price factor %v outside (0,1]", p))
	}
	f := float64(fastBytes)
	c := float64(totalBytes)
	return (f + (c-f)*p) / c
}

// Baseline rows of Table II.
type Baseline struct {
	Name          string
	FastBytes     int64
	SlowBytes     int64
	CostReduction float64
}

// TableII returns the paper's baseline sizings for a dataset of c bytes
// at price factor p: best case (all FastMem, R = 1), worst case (all
// SlowMem, R = p), and an illustrative in-between point.
func TableII(c int64, p float64) []Baseline {
	half := c / 2
	return []Baseline{
		{Name: "Best Case", FastBytes: c, SlowBytes: 0, CostReduction: CostReduction(c, c, p)},
		{Name: "In between", FastBytes: half, SlowBytes: c - half, CostReduction: CostReduction(half, c, p)},
		{Name: "Worst Case", FastBytes: 0, SlowBytes: c, CostReduction: CostReduction(0, c, p)},
	}
}

// VMInstance is one catalog entry of a cloud provider.
type VMInstance struct {
	Provider  string
	Name      string
	VCPU      float64
	MemGB     float64
	HourlyUSD float64
	// MemoryOptimized marks the instances Fig 1 reports shares for.
	MemoryOptimized bool
}

// Coefficients are the fitted per-vCPU and per-GB hourly costs.
type Coefficients struct {
	Provider  string
	CPerVCPU  float64 // $/vCPU/hour
	MPerGB    float64 // $/GB/hour
	RSS       float64 // residual sum of squares of the fit
	Instances int
}

// Fit solves VMCost = vCPU·C + GB·M over the instances by least squares.
// At least two instances with non-collinear shapes are required.
func Fit(instances []VMInstance) (Coefficients, error) {
	if len(instances) < 2 {
		return Coefficients{}, fmt.Errorf("costmodel: need ≥2 instances, have %d", len(instances))
	}
	rows := make([][]float64, len(instances))
	b := make([]float64, len(instances))
	for i, inst := range instances {
		rows[i] = []float64{inst.VCPU, inst.MemGB}
		b[i] = inst.HourlyUSD
	}
	x, rss, err := linalg.LeastSquares(linalg.FromRows(rows), b)
	if err != nil {
		return Coefficients{}, fmt.Errorf("costmodel: fitting %s: %w", instances[0].Provider, err)
	}
	return Coefficients{
		Provider:  instances[0].Provider,
		CPerVCPU:  x[0],
		MPerGB:    x[1],
		RSS:       rss,
		Instances: len(instances),
	}, nil
}

// MemoryCostShare estimates the fraction of an instance's hourly price
// attributable to memory under the fitted coefficients.
func MemoryCostShare(inst VMInstance, c Coefficients) float64 {
	if inst.HourlyUSD <= 0 {
		panic(fmt.Sprintf("costmodel: instance %s has non-positive price", inst.Name))
	}
	share := c.MPerGB * inst.MemGB / inst.HourlyUSD
	if share < 0 {
		share = 0
	}
	if share > 1 {
		share = 1
	}
	return share
}

// ShareRow is one bar of Fig 1.
type ShareRow struct {
	Provider    string
	Instance    string
	MemoryShare float64
}

// Fig1 fits each provider's catalog and reports the memory cost share of
// every memory-optimized instance, sorted by provider then instance.
func Fig1() ([]ShareRow, error) {
	var rows []ShareRow
	for _, provider := range Providers() {
		catalog := Instances(provider)
		coeff, err := Fit(catalog)
		if err != nil {
			return nil, err
		}
		for _, inst := range catalog {
			if !inst.MemoryOptimized {
				continue
			}
			rows = append(rows, ShareRow{
				Provider:    provider,
				Instance:    inst.Name,
				MemoryShare: MemoryCostShare(inst, coeff),
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Provider != rows[j].Provider {
			return rows[i].Provider < rows[j].Provider
		}
		return rows[i].Instance < rows[j].Instance
	})
	return rows, nil
}

// PriceFactorFromHardware derives p from actual per-GB hardware or VM
// prices, the way a Mnemo user would in a "real usage scenario" (§II).
func PriceFactorFromHardware(slowPerGB, fastPerGB float64) (float64, error) {
	if !(slowPerGB > 0 && fastPerGB > 0) { // NaN fails too
		return 0, fmt.Errorf("costmodel: prices must be positive (slow %v, fast %v)", slowPerGB, fastPerGB)
	}
	p := slowPerGB / fastPerGB
	if !(p < 1) {
		return 0, fmt.Errorf("costmodel: slow memory (%v $/GB) is not cheaper than fast (%v $/GB)", slowPerGB, fastPerGB)
	}
	return p, nil
}
