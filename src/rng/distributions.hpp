// Sampling routines built directly on the bit generator.
//
// We avoid std::*_distribution because the standard leaves their algorithms
// implementation-defined; owning the inverse-transform code keeps traces
// bit-reproducible across compilers, which the coupled sample-path
// experiments rely on.
#pragma once


#include "rng/xoshiro.hpp"

namespace esched {

/// Uniform double in (0, 1]; never returns 0 so log() is always finite.
double uniform_open01(Xoshiro256& rng);

/// Uniform double in [lo, hi).
double uniform(Xoshiro256& rng, double lo, double hi);

/// Exponential sample with the given rate (mean 1/rate). rate must be > 0.
double exponential(Xoshiro256& rng, double rate);

/// Bernoulli trial with success probability p in [0, 1].
bool bernoulli(Xoshiro256& rng, double p);

}  // namespace esched
