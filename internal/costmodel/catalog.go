package costmodel

// 2018-era on-demand list prices (US regions), approximating the price
// sheets the paper cites ([3] AWS ElastiCache pricing, [6] Google Compute
// Engine pricing, [11] Microsoft Azure Linux VM pricing, all retrieved
// November 2018). Absolute dollars matter less than the vCPU:GB:price
// shape, which is what the least-squares fit extracts. The fitted memory
// shares span 54–90% (AWS cache.r5 ≈55%, Azure M128ms ≈90%) against the
// paper's 60–85% for the memory-optimized families (Fig 1).

// Provider identifiers.
const (
	AWS   = "aws"
	GCP   = "gcp"
	Azure = "azure"
)

// Providers returns all provider identifiers in Fig 1 order.
func Providers() []string { return []string{AWS, GCP, Azure} }

var awsInstances = []VMInstance{
	// ElastiCache cache.m5 (general purpose).
	{AWS, "cache.m5.large", 2, 6.38, 0.156, false},
	{AWS, "cache.m5.xlarge", 4, 12.93, 0.311, false},
	{AWS, "cache.m5.2xlarge", 8, 26.04, 0.622, false},
	{AWS, "cache.m5.4xlarge", 16, 52.26, 1.244, false},
	{AWS, "cache.m5.12xlarge", 48, 157.12, 3.732, false},
	{AWS, "cache.m5.24xlarge", 96, 314.32, 7.464, false},
	// ElastiCache cache.r5 (memory optimized — the Fig 1 family).
	{AWS, "cache.r5.large", 2, 13.07, 0.216, true},
	{AWS, "cache.r5.xlarge", 4, 26.32, 0.431, true},
	{AWS, "cache.r5.2xlarge", 8, 52.82, 0.862, true},
	{AWS, "cache.r5.4xlarge", 16, 105.81, 1.725, true},
	{AWS, "cache.r5.12xlarge", 48, 317.77, 5.174, true},
	{AWS, "cache.r5.24xlarge", 96, 635.61, 10.349, true},
}

var gcpInstances = []VMInstance{
	// n1-standard (3.75 GB/vCPU).
	{GCP, "n1-standard-1", 1, 3.75, 0.0475, false},
	{GCP, "n1-standard-2", 2, 7.5, 0.0950, false},
	{GCP, "n1-standard-4", 4, 15, 0.1900, false},
	{GCP, "n1-standard-8", 8, 30, 0.3800, false},
	{GCP, "n1-standard-16", 16, 60, 0.7600, false},
	{GCP, "n1-standard-32", 32, 120, 1.5200, false},
	{GCP, "n1-standard-64", 64, 240, 3.0400, false},
	{GCP, "n1-standard-96", 96, 360, 4.5600, false},
	// n1-highcpu (0.9 GB/vCPU) anchors the vCPU coefficient.
	{GCP, "n1-highcpu-16", 16, 14.4, 0.5672, false},
	{GCP, "n1-highcpu-32", 32, 28.8, 1.1344, false},
	{GCP, "n1-highcpu-64", 64, 57.6, 2.2688, false},
	// n1-highmem (6.5 GB/vCPU).
	{GCP, "n1-highmem-16", 16, 104, 0.9472, false},
	{GCP, "n1-highmem-32", 32, 208, 1.8944, false},
	{GCP, "n1-highmem-64", 64, 416, 3.7888, false},
	{GCP, "n1-highmem-96", 96, 624, 5.6832, false},
	// Memory-optimized megamem/ultramem (the Fig 1 family).
	{GCP, "n1-megamem-96", 96, 1433.6, 10.6740, true},
	{GCP, "n1-ultramem-40", 40, 961, 6.3039, true},
	{GCP, "n1-ultramem-80", 80, 1922, 12.6078, true},
	{GCP, "n1-ultramem-160", 160, 3844, 25.2156, true},
}

var azureInstances = []VMInstance{
	// Dv3 general purpose.
	{Azure, "D2v3", 2, 8, 0.096, false},
	{Azure, "D4v3", 4, 16, 0.192, false},
	{Azure, "D8v3", 8, 32, 0.384, false},
	{Azure, "D16v3", 16, 64, 0.768, false},
	{Azure, "D32v3", 32, 128, 1.536, false},
	{Azure, "D64v3", 64, 256, 3.072, false},
	// F-series compute optimized anchors the vCPU coefficient.
	{Azure, "F8sv2", 8, 16, 0.338, false},
	{Azure, "F16sv2", 16, 32, 0.677, false},
	{Azure, "F32sv2", 32, 64, 1.353, false},
	// Ev3 memory optimized (Fig 1 family).
	{Azure, "E2v3", 2, 16, 0.126, true},
	{Azure, "E4v3", 4, 32, 0.252, true},
	{Azure, "E8v3", 8, 64, 0.504, true},
	{Azure, "E16v3", 16, 128, 1.008, true},
	{Azure, "E32v3", 32, 256, 2.016, true},
	{Azure, "E64v3", 64, 432, 3.629, true},
	// M-series extreme memory optimized (Fig 1 family). List prices carry
	// a platform premium over the pure vCPU+GB decomposition.
	{Azure, "M64s", 64, 1024, 8.10, true},
	{Azure, "M64ms", 64, 1792, 12.70, true},
	{Azure, "M128s", 128, 2048, 16.10, true},
	{Azure, "M128ms", 128, 3892, 27.20, true},
}

// Instances returns the embedded catalog of a provider (nil for an
// unknown provider identifier).
func Instances(provider string) []VMInstance {
	switch provider {
	case AWS:
		return awsInstances
	case GCP:
		return gcpInstances
	case Azure:
		return azureInstances
	default:
		return nil
	}
}
