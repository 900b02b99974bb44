// Self-test of the benchmark's output checks: every check must accept a
// correct answer and reject a planted wrong one — a perturbed probability,
// a dropped row, a file truncated after saving. Exit status 0 iff every
// case behaves; each case prints one line.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "e2ebench/src/harness.h"

namespace e2e {
namespace {

int failures = 0;

void Expect(const char* what, bool holds) {
  std::printf("%-64s %s\n", what, holds ? "ok" : "FAILED");
  if (!holds) ++failures;
}
void Passes(const char* what, const std::string& error) {
  Expect(what, error.empty());
  if (!error.empty()) std::printf("    unexpected: %s\n", error.c_str());
}
void Rejects(const char* what, const std::string& error) { Expect(what, !error.empty()); }

void RepairKeyCases() {
  const RawWeights raw = {{"7", {{0, 1.0}, {1, 3.0}}}, {"8", {{0, 2.0}}}};
  const std::vector<Alt> good = {{"7", 0, 0.25}, {"7", 1, 0.75}, {"8", 0, 1.0}};
  Passes("repair key: correct tconf()", CheckRepairKey(good, raw, {"7", "8"}, kTol));
  std::vector<Alt> perturbed = good;
  perturbed[0].p += 1e-6;
  Rejects("repair key: perturbed probability",
          CheckRepairKey(perturbed, raw, {"7", "8"}, kTol));
  std::vector<Alt> dropped = {good[0], good[2]};
  Rejects("repair key: dropped alternative",
          CheckRepairKey(dropped, raw, {"7", "8"}, kTol));
  Rejects("repair key: dropped key",
          CheckRepairKey({good[0], good[1]}, raw, {"7", "8"}, kTol));
  Rejects("repair key: wire tolerance still sees 1e-4",
          CheckRepairKey({{"7", 0, 0.2501}, {"7", 1, 0.7499}}, raw, {"7"}, kWireTol));
}

void PosteriorCases() {
  const std::vector<Alt> good = {{"k", 0, 0.0}, {"k", 1, 1.0}};
  Passes("posterior: asserted 1, contradicted 0", CheckPosterior(good, "k", 1, kTol));
  Passes("posterior: contradicted tuple not listed",
         CheckPosterior({good[1]}, "k", 1, kTol));
  Rejects("posterior: perturbed asserted probability",
          CheckPosterior({{"k", 0, 0.0}, {"k", 1, 1.0 - 1e-6}}, "k", 1, kTol));
  Rejects("posterior: contradicted tuple with p > 0",
          CheckPosterior({{"k", 0, 1e-3}, {"k", 1, 1.0}}, "k", 1, kTol));
  Rejects("posterior: dropped asserted row", CheckPosterior({good[0]}, "k", 1, kTol));
}

void ExpectationCases() {
  const std::vector<Weighted> rows = {{"a", 10, 0.5}, {"a", 4, 0.25}, {"b", 3, 1.0}};
  const std::map<std::string, double> esum = {{"a", 6.0}, {"b", 3.0}};
  Passes("esum: equals sum of tconf()*x", CheckExpectation(esum, rows, kTol));
  Rejects("esum: perturbed expectation",
          CheckExpectation({{"a", 6.0 + 1e-6}, {"b", 3.0}}, rows, kTol));
  Rejects("esum: dropped row in the tconf() query",
          CheckExpectation(esum, {rows[0], rows[2]}, kTol));
  Rejects("esum: dropped group", CheckExpectation({{"a", 6.0}}, rows, kTol));
}

void MonotoneAndRangeCases() {
  const std::map<std::string, double> low = {{"x", 0.9}, {"y", 0.4}};
  Passes("monotone: lower threshold >= higher",
         CheckMonotone(low, {{"x", 0.8}, {"y", 0.4}}, kTol));
  Rejects("monotone: perturbed above the lower threshold",
          CheckMonotone(low, {{"x", 0.9 + 1e-6}}, kTol));
  Rejects("monotone: group only at the higher threshold",
          CheckMonotone(low, {{"z", 0.1}}, kTol));
  Passes("range: [0, 1]", CheckProbabilities({0.0, 0.5, 1.0}));
  Rejects("range: above 1", CheckProbabilities({0.5, 1.0 + 1e-12}));
  Rejects("range: negative", CheckProbabilities({-1e-12}));
  Rejects("range: NaN", CheckProbabilities({std::nan("")}));
  Rejects("range: no rows", CheckProbabilities({}));
}

void AconfCases() {
  std::map<std::string, double> exact, close, far;
  for (int i = 0; i < 60; ++i) {
    const std::string g = std::to_string(i);
    exact[g] = 0.5;
    close[g] = i % 10 == 0 ? 0.6 : 0.52;  // 6 groups outside eps: allowed
    far[g] = i % 2 == 0 ? 0.7 : 0.5;      // 30 groups outside eps
  }
  Passes("aconf: within eps but for a binomial-delta share",
         CheckAconf(exact, close, 0.1, 0.1));
  Rejects("aconf: too many groups outside eps", CheckAconf(exact, far, 0.1, 0.1));
  std::map<std::string, double> dropped = close;
  dropped.erase("3");
  Rejects("aconf: dropped group", CheckAconf(exact, dropped, 0.1, 0.1));
  Expect("aconf: allowance grows with delta",
         BinomialAllowance(60, 0.01) < BinomialAllowance(60, 0.1));
}

/// Checks on real engine output: a database, a perturbed copy of a real
/// result, and a truncated database file.
void EngineCases(const std::string& tmp_dir) {
  maybms::DatabaseOptions options;
  options.exec.num_threads = 1;
  Database db(options);
  Session& s = db.session();
  Run run(Options{"selftest", 1, 1, false, tmp_dir});
  run.Must(s, "create table raw (k int, alt int, w double)");
  run.Must(s, "insert into raw values (1, 0, 1.0), (1, 1, 3.0), (2, 0, 2.0), "
              "(2, 1, 2.0)");
  run.Must(s, "create table u as select * from (repair key k in raw weight by w) r");
  run.Must(s, "create index u_k on u (k)");
  const RawWeights raw = {{"1", {{0, 1.0}, {1, 3.0}}}, {"2", {{0, 2.0}, {1, 2.0}}}};
  const std::string lookup = "select k, alt, tconf() as p from u where k = 1";
  const QueryResult r = run.Must(s, lookup);
  Passes("engine: tconf() matches w/sum(w)",
         CheckRepairKey(AltsOf(FromResult(r), "k", "alt", "p"), raw, {"1"}, kTol));

  maybms::TableData perturbed{r.schema(), r.rows(), r.uncertain()};
  const double p = perturbed.rows[0].values[2].AsDouble();
  perturbed.rows[0].values[2] = maybms::Value::Double(std::nextafter(p, 2.0));
  const QueryResult bad(perturbed, "");
  Rejects("engine: perturbed probability breaks bit-identity",
          CheckIdentical(Fingerprint(r), Fingerprint(bad)));
  maybms::TableData dropped{r.schema(), {r.rows()[0]}, r.uncertain()};
  Rejects("engine: dropped row fails the repair-key check",
          CheckRepairKey(AltsOf(FromResult(QueryResult(dropped, "")), "k", "alt", "p"),
                         raw, {"1"}, kTol));

  const std::vector<std::string> probes = {
      lookup, "select alt, conf() as p from u group by alt"};
  const std::vector<std::string> fingerprints = CheckIndexOnOff(run, s, probes);
  Expect("engine: index on/off identical", run.failed_checks() == 0);
  RoundTrip(run, db, tmp_dir + "/intact.db", options, probes, fingerprints, {{"u", 4}});
  Expect("engine: intact save/load round trip passes", run.failed_checks() == 0);
  RoundTrip(run, db, tmp_dir + "/rows.db", options, probes, fingerprints, {{"u", 5}});
  Expect("engine: row tally mismatch fails the round trip", run.failed_checks() > 0);

  for (const double keep : {0.5, 0.99}) {
    Run truncated_run(Options{"selftest", 1, 1, false, tmp_dir});
    RoundTrip(truncated_run, db, tmp_dir + "/truncated.db", options, probes, fingerprints,
              {{"u", 4}}, [keep](const std::string& path) {
                const auto size = std::filesystem::file_size(path);
                std::filesystem::resize_file(path, static_cast<uintmax_t>(size * keep));
              });
    Expect(keep < 0.9 ? "engine: file truncated to half after saving fails"
                      : "engine: file missing its last 1% after saving fails",
           truncated_run.failed_checks() > 0);
  }
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  const std::string tmp_dir = argc > 1 ? argv[1] : ".e2ebench_selftest";
  std::filesystem::create_directories(tmp_dir);
  e2e::RepairKeyCases();
  e2e::PosteriorCases();
  e2e::ExpectationCases();
  e2e::MonotoneAndRangeCases();
  e2e::AconfCases();
  e2e::EngineCases(tmp_dir);
  std::filesystem::remove_all(tmp_dir);
  std::printf("%s\n", e2e::failures == 0 ? "selftest: all cases behave"
                                         : "selftest: FAILURES");
  return e2e::failures == 0 ? 0 : 1;
}
