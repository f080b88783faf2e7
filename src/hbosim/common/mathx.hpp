#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// \file mathx.hpp
/// Scalar and small-vector math helpers used throughout hbosim.

namespace hbosim {

/// Clamp v into [lo, hi]. Requires lo <= hi.
double clampd(double v, double lo, double hi);

/// Arithmetic mean; returns 0 for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for n < 2.
double stdev(std::span<const double> xs);

/// Standard normal probability density.
double norm_pdf(double z);

/// Standard normal cumulative distribution (via std::erfc).
double norm_cdf(double z);

/// Euclidean distance between two equal-length vectors.
double euclidean_distance(std::span<const double> a, std::span<const double> b);

/// Project v onto the probability simplex {p : p_i >= 0, sum p_i = 1}
/// (Euclidean projection, algorithm of Wang & Carreira-Perpinan).
std::vector<double> project_to_simplex(std::span<const double> v);

/// Same projection written into `out` (same size as v; out may alias v).
/// `scratch` holds the sorted working copy — reusing it across calls makes
/// the projection allocation-free at steady state. Bitwise identical to
/// the allocating overload.
void project_to_simplex(std::span<const double> v, std::span<double> out,
                        std::vector<double>& scratch);

}  // namespace hbosim
