#include "e2ebench/src/checks.h"

#include <cmath>
#include <cstdio>

#include "e2ebench/src/harness.h"

namespace e2e {

std::string CheckRepairKey(const std::vector<Alt>& got, const RawWeights& raw,
                           const std::vector<std::string>& expected_keys,
                           double tol) {
  std::map<std::string, std::map<int64_t, double>> by_key;
  for (const Alt& a : got) {
    if (!by_key[a.key].emplace(a.alt, a.p).second) {
      return "duplicate alternative for key " + a.key;
    }
  }
  for (const std::string& key : expected_keys) {
    if (by_key.count(key) == 0) return "key " + key + " missing from the result";
  }
  if (by_key.size() != expected_keys.size()) {
    return Format("%zu keys returned, %zu expected", by_key.size(), expected_keys.size());
  }
  for (const auto& [key, alts] : by_key) {
    auto it = raw.find(key);
    if (it == raw.end()) return "key " + key + " not in the generated rows";
    if (alts.size() != it->second.size()) {
      return Format("key %s: %zu alternatives returned, %zu generated", key.c_str(),
                 alts.size(), it->second.size());
    }
    double total_w = 0;
    for (const auto& [alt, w] : it->second) total_w += w;
    double sum = 0;
    for (const auto& [alt, w] : it->second) {
      auto g = alts.find(alt);
      if (g == alts.end()) return "key " + key + ": an alternative is missing";
      const double want = w / total_w;
      if (!(std::fabs(g->second - want) <= tol)) {
        return Format("key %s: tconf %.17g, expected w/sum(w) = %.17g", key.c_str(),
                   g->second, want);
      }
      sum += g->second;
    }
    if (!(std::fabs(sum - 1.0) <= tol * static_cast<double>(alts.size()))) {
      return Format("key %s: alternatives sum to %.17g, not 1", key.c_str(), sum);
    }
  }
  return "";
}

std::string CheckPosterior(const std::vector<Alt>& got, const std::string& key,
                           int64_t asserted_alt, double tol) {
  bool seen = false;
  for (const Alt& a : got) {
    if (a.key != key) return "posterior lists a row of key " + a.key;
    if (a.alt == asserted_alt) {
      seen = true;
      if (!(std::fabs(a.p - 1.0) <= tol)) {
        return Format("key %s: asserted alternative has posterior %.17g", key.c_str(), a.p);
      }
    } else if (!(std::fabs(a.p) <= tol)) {
      return Format("key %s: contradicted alternative has posterior %.17g",
                 key.c_str(), a.p);
    }
  }
  if (!seen) return "key " + key + ": asserted alternative missing";
  return "";
}

std::string CheckExpectation(const std::map<std::string, double>& got,
                             const std::vector<Weighted>& rows, double rel_tol) {
  std::map<std::string, double> want;
  for (const Weighted& w : rows) want[w.group] += w.p * w.x;
  if (got.size() != want.size()) {
    return Format("%zu groups returned, %zu expected", got.size(), want.size());
  }
  for (const auto& [group, value] : want) {
    auto it = got.find(group);
    if (it == got.end()) return "group " + group + " missing";
    if (!(std::fabs(it->second - value) <= rel_tol * std::fmax(1.0, std::fabs(value)))) {
      return Format("group %s: expectation %.17g, sum of tconf()*x %.17g",
                 group.c_str(), it->second, value);
    }
  }
  return "";
}

std::string CheckMonotone(const std::map<std::string, double>& lower_threshold,
                          const std::map<std::string, double>& higher_threshold,
                          double tol) {
  for (const auto& [group, p_high] : higher_threshold) {
    auto it = lower_threshold.find(group);
    if (it == lower_threshold.end()) {
      return "group " + group + " present only at the higher threshold";
    }
    if (!(it->second >= p_high - tol)) {
      return Format("group %s: conf %.17g at the lower threshold < %.17g",
                 group.c_str(), it->second, p_high);
    }
  }
  return "";
}

std::string CheckProbabilities(const std::vector<double>& ps) {
  if (ps.empty()) return "no probabilities returned";
  for (double p : ps) {
    if (!std::isfinite(p) || p < 0 || p > 1) {
      return Format("probability %.17g outside [0,1]", p);
    }
  }
  return "";
}

int BinomialAllowance(int n, double delta) {
  // P(X > k) = 1 - Σ_{i<=k} C(n,i) δ^i (1-δ)^(n-i), accumulated in logs.
  double cdf = 0;
  for (int k = 0; k <= n; ++k) {
    const double log_pmf = std::lgamma(n + 1.0) - std::lgamma(k + 1.0) -
                           std::lgamma(n - k + 1.0) + k * std::log(delta) +
                           (n - k) * std::log1p(-delta);
    cdf += std::exp(log_pmf);
    if (1.0 - cdf <= 1e-9) return k;
  }
  return n;
}

std::string CheckAconf(const std::map<std::string, double>& exact,
                       const std::map<std::string, double>& approx, double eps,
                       double delta) {
  if (exact.size() != approx.size()) {
    return Format("aconf returned %zu groups, conf %zu", approx.size(), exact.size());
  }
  int misses = 0;
  for (const auto& [group, p] : exact) {
    auto it = approx.find(group);
    if (it == approx.end()) return "group " + group + " missing from aconf";
    if (!(std::fabs(it->second - p) <= eps * p + 1e-12)) ++misses;
  }
  const int allowed = BinomialAllowance(static_cast<int>(exact.size()), delta);
  if (misses > allowed) {
    return Format("%d groups outside eps*conf, at most %d allowed", misses, allowed);
  }
  return "";
}

std::string CheckIdentical(const std::string& a, const std::string& b) {
  if (a == b) return "";
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return "results differ at byte " + std::to_string(i);
}

std::string CheckCount(uint64_t got, uint64_t want) {
  if (got == want) return "";
  return "row count " + std::to_string(got) + ", expected " + std::to_string(want);
}

}  // namespace e2e
