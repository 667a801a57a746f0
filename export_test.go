package score

// WithBandwidth scales every link and allocation rate of the Sim's DGX
// A100 nodes by s for tests, as a reduced-scale experiment run scales
// its shots' (1 is the paper's hardware).
func WithBandwidth(s float64) Option {
	return func(c *simConfig) { c.bandwidth = s }
}
