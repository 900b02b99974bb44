// Output checks of the end-to-end benchmark. Each compares what the program
// returned against a computation made outside it (from the generator's raw
// rows, or from an independent query) or against a property the method
// must have. None is a stored copy of an earlier output.
//
// Every check returns "" when it holds and a description otherwise. They
// are pure functions so the self-test can feed them planted wrong answers.
//
// Tolerances: values computed by the program along the same path are
// compared bit for bit only where the program guarantees it (index on/off,
// save/load round trip). Independent floating-point paths are compared
// within kTol (in-process) or kWireTol (server replies, rendered with six
// significant digits).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

inline constexpr double kTol = 1e-9;
inline constexpr double kWireTol = 2e-5;

/// One repair-key alternative as returned by a tconf() query.
struct Alt {
  std::string key;
  int64_t alt = 0;
  double p = 0;
};

/// Generator's raw rows: key -> alternative -> weight.
using RawWeights = std::map<std::string, std::map<int64_t, double>>;

/// The lookup returned exactly the keys in `expected_keys`, with every
/// alternative of each; tconf() of each alternative equals w / Σw of its
/// key group, and each key's alternatives sum to 1.
std::string CheckRepairKey(const std::vector<Alt>& got, const RawWeights& raw,
                           const std::vector<std::string>& expected_keys,
                           double tol);

/// Posterior tconf() of the asserted key: 1 for the asserted alternative,
/// and p = 0 for any other alternative that is listed.
std::string CheckPosterior(const std::vector<Alt>& got, const std::string& key,
                           int64_t asserted_alt, double tol);

/// One (group, x, tconf) row of an independent tconf() query.
struct Weighted {
  std::string group;
  double x = 0;
  double p = 0;
};

/// Linearity of expectation: esum(x) per group equals Σ tconf()·x over the
/// same rows (ecount() is the case x = 1).
std::string CheckExpectation(const std::map<std::string, double>& got,
                             const std::vector<Weighted>& rows, double rel_tol);

/// conf() is monotone in a `>` threshold: every group of the higher
/// threshold appears at the lower one with a probability at least as high.
std::string CheckMonotone(const std::map<std::string, double>& lower_threshold,
                          const std::map<std::string, double>& higher_threshold,
                          double tol);

/// Every probability is finite and lies in [0, 1].
std::string CheckProbabilities(const std::vector<double>& ps);

/// aconf(ε,δ) lies within ε·conf() of the exact answer on every group
/// except at most BinomialAllowance(groups, δ) of them.
std::string CheckAconf(const std::map<std::string, double>& exact,
                       const std::map<std::string, double>& approx, double eps,
                       double delta);

/// Smallest k with P(Binomial(n, delta) > k) <= 1e-9.
int BinomialAllowance(int n, double delta);

/// Bit-identical results (fingerprints from harness.h's Fingerprint).
std::string CheckIdentical(const std::string& a, const std::string& b);

/// Row counts match the benchmark's own tally.
std::string CheckCount(uint64_t got, uint64_t want);

}  // namespace e2e
