package score

// WithNodeBandwidths overrides the interconnect model for tests: d2d is
// the device-local copy bandwidth, pcie the host link (shared by GPU
// pairs), nvme the aggregate node SSD bandwidth, pfs the per-node
// parallel file system share, all in bytes per simulated second.
func WithNodeBandwidths(d2d, pcie, nvme, pfs float64) Option {
	return func(c *simConfig) {
		c.node.D2DBandwidth = d2d
		c.node.PCIeBandwidth = pcie
		c.node.NVMeDrives = 1
		c.node.NVMePerDrive = nvme
		c.node.PFSBandwidth = pfs
	}
}
