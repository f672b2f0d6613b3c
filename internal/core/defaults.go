package core

// CommonConfig is the slice of configuration every concurrent sketch
// instantiation shares (Θ, Quantiles, HLL, and the keyed tables built
// on them). Each instantiation's config embeds these fields flat for
// API stability and funnels them through WithDefaults, so the
// zero-value conventions live in exactly one place.
type CommonConfig struct {
	// Writers is N, the number of writer handles; 0 means 1.
	Writers int
	// EagerLimit follows the shared convention: > 0 sets the eager
	// cutoff explicitly, 0 takes the instantiation's derived default,
	// < 0 disables the eager phase.
	EagerLimit int
	// Seed is the hash/oracle seed; 0 takes the instantiation default.
	Seed uint64
}

// WithDefaults resolves the shared zero-value conventions against the
// instantiation's derived eager limit and default seed. A disabled
// eager limit stays negative, so resolving a resolved config again (an
// engine resolves once, each sketch it builds once more) changes
// nothing; core.Config treats every value <= 0 as "no eager phase".
func (c CommonConfig) WithDefaults(derivedEagerLimit int, defaultSeed uint64) CommonConfig {
	if c.Writers == 0 {
		c.Writers = 1
	}
	if c.EagerLimit == 0 {
		c.EagerLimit = derivedEagerLimit
	}
	if c.Seed == 0 {
		c.Seed = defaultSeed
	}
	return c
}
