// Shared machinery of the end-to-end benchmark: the seeded input generator,
// timed statements, sample statistics, registry/table snapshots, the
// parse/bind/optimize replay, the save/load round trip, output checks and
// the final one-line JSON result.
//
// Every figure is taken from OUTSIDE the engine: the benchmark times the
// public calls it makes (Session::Query, Client::Request, SaveDatabaseToFile,
// LoadDatabaseFromFile, ParseStatement, BindStatement, OptimizePlan) and
// reads counters through SessionManager::StatsSnapshot() and
// Table::snapshot_stats() — C++ calls, never extra SQL statements.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/src/checks.h"
#include "src/engine/database.h"

namespace e2e {

using maybms::Database;
using maybms::QueryResult;
using maybms::Result;
using maybms::Session;
using maybms::SessionManager;

/// Monotonic seconds since the benchmark process started (main()).
double SinceStartS();
void MarkProcessStart();

/// printf into a std::string.
__attribute__((format(printf, 1, 2))) std::string Format(const char* fmt, ...);

/// `insert into <table> values ...` statements of at most `per_statement`
/// of the SQL tuples `rows` each.
std::vector<std::string> BatchInserts(const std::string& table,
                                      const std::vector<std::string>& rows,
                                      size_t per_statement);

/// splitmix64: the benchmark's inputs are a pure function of --seed.
class Gen {
 public:
  explicit Gen(uint64_t seed) : s_(seed * 0x9e3779b97f4a7c15ULL + 0x1234567ULL) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi), rounded to 2 decimals so that SQL literals carry
  /// the exact value the checks use.
  double Money(double lo, double hi) {
    const double u = static_cast<double>(Next() >> 11) / 9007199254740992.0;
    return static_cast<double>(static_cast<int64_t>((lo + u * (hi - lo)) * 100)) /
           100.0;
  }
  /// Shuffles `v` in place (Fisher-Yates).
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    for (size_t i = v->size(); i > 1; --i) std::swap((*v)[i - 1], (*v)[Below(i)]);
  }

 private:
  uint64_t s_;
};

/// What a statement computes; a statement may carry several flags.
enum StmtFlag : unsigned {
  kConfStmt = 1u << 0,       ///< computes conf()
  kAconfStmt = 1u << 1,      ///< computes aconf()
  kInsertStmt = 1u << 2,     ///< INSERT (counts toward ingest)
  kAssertStmt = 1u << 3,     ///< ASSERT (conditioning)
  kPosteriorStmt = 1u << 4,  ///< conf()/tconf() under asserted evidence
  kLookupStmt = 1u << 5,     ///< tconf() point lookup
  kEsumStmt = 1u << 6,       ///< esum()/ecount()
  kDmlStmt = 1u << 7,        ///< UPDATE / DELETE
  kOtherStmt = 1u << 8,      ///< anything else (CLEAR EVIDENCE, ...)
  kStagingStmt = 1u << 9,    ///< INSERT timed as ingest, rows not counted
};

struct Sample {
  unsigned flags = 0;
  double ms = 0;
  uint64_t rows = 0;  ///< rows an ingest INSERT added (0 otherwise)
};

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
/// Arithmetic mean of `v`; 0 for an empty set.
double Mean(const std::vector<double>& v);

/// Per-statement samples of the timed phase and the statement texts (for
/// the replay). One per run: every workload drives its sessions from a
/// single thread.
struct Recorder {
  /// Statement texts kept for the replay (the first ones of the run).
  static constexpr size_t kMaxTexts = 20000;

  std::vector<Sample> samples;
  std::vector<std::string> texts;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// One successful statement of the timed phase.
  void Record(unsigned flags, double ms, uint64_t rows, const std::string& sql);
  /// Latencies of the statements with any of `flags`.
  std::vector<double> Ms(unsigned any_of_flags) const;
  /// Closed-loop statement rate: statements over the summed time spent
  /// inside them (what the benchmark does between statements is not the
  /// program's).
  double StmtPerS() const;
  /// Rows ingested per second of time inside the INSERT statements.
  double IngestRowsPerS() const;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string tmp_dir;
};

/// Parsed rows of a statement: every cell as text plus, for numeric
/// cells, the value. Built from an in-process QueryResult or from a
/// server reply's ASCII table, so checks read both the same way.
struct Rows {
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> text;
  std::vector<std::vector<double>> num;  // NaN where not numeric
  size_t size() const { return text.size(); }
};
Rows FromResult(const QueryResult& r);
/// Parses the "| a | b |" table the server renders; false on bad framing.
bool FromAsciiTable(const std::vector<std::string>& lines, Rows* out);

/// Column `name` of `rows`; -1 when absent.
int ColumnIndex(const Rows& rows, const std::string& name);

/// (key, alt, p) triples from the named columns of a tconf() result.
std::vector<Alt> AltsOf(const Rows& rows, const std::string& key,
                               const std::string& alt, const std::string& p);

/// group -> value from the named columns of a grouped result.
std::map<std::string, double> GroupsOf(const Rows& rows, const std::string& group,
                                       const std::string& value);

/// Every value of column `name`.
std::vector<double> ColumnOf(const Rows& rows, const std::string& name);

/// Bit-exact rendering of a result (doubles as hex bit patterns): two
/// results are bit-identical iff their fingerprints are equal.
std::string Fingerprint(const QueryResult& r);

/// Registry + component gauges, by name (SessionManager::StatsSnapshot).
using Snap = std::map<std::string, double>;
Snap TakeSnap(SessionManager& manager);
double Delta(const Snap& before, const Snap& after, const std::string& name);

/// Table::snapshot_stats() summed over every table of the catalog.
struct ChunkStats {
  uint64_t rebuilt = 0;
  uint64_t reused = 0;
};
ChunkStats TakeChunkStats(maybms::Catalog& catalog);

/// Parse / bind / optimize replay of statement texts from one thread,
/// after the timed phase: medians in microseconds.
struct ReplayStats {
  double parse_us_p50 = 0;
  double bind_us_p50 = 0;
  double optimize_us_p50 = 0;
};
ReplayStats Replay(SessionManager& manager, const std::vector<std::string>& texts,
                   const maybms::ExecOptions& options);

/// One SaveDatabaseToFile of the catalog and one LoadDatabaseFromFile of
/// the file into a fresh Database, each timed; `loaded` receives that
/// database (null if either call failed). `after_save` runs between the
/// two calls (the self-test damages the file there).
struct PersistStats {
  double save_s = 0;
  double load_s = 0;
  uint64_t file_bytes = 0;
  std::string error;
  std::unique_ptr<Database> loaded;
};
PersistStats SaveLoad(Database& db, const std::string& path,
                      const maybms::DatabaseOptions& load_options,
                      const std::function<void(const std::string&)>& after_save = {});

/// Save and load times sampled at points spread over the timed phase; the
/// save_s and load_s metrics are their means (total time over calls). On a
/// shared host other tenants slow memory-bound work by up to 1.6x in
/// bursts of a few seconds, so a persistence phase of its own lands in one
/// burst or misses it, while samples spread over the run see the
/// conditions its statements saw. Their times are bimodal (in a burst or
/// not) with about even shares, so a median jumps between the two modes
/// from run to run; the mean moves only with the share.
struct PersistTimes {
  std::vector<double> save_s, load_s;
  std::string error;  ///< the first failed save or load

  /// One SaveLoad into `path`; the loaded database and the file are dropped.
  void Sample(Database& db, const std::string& path, const maybms::DatabaseOptions& options);
};

/// Whether the timed phase takes one of `samples` evenly spaced side
/// samples (persistence, tpch_conf's ingest passes) after `round` of
/// `rounds`.
inline bool SampleAfter(int round, int rounds, int samples) {
  const int every = std::max(1, rounds / samples);
  return (round + 1) % every == 0;
}

/// Peak resident set of this process (getrusage), MiB.
double PeakRssMiB();

/// One run of one workload: counts, checks, metrics, and the final line.
class Run {
 public:
  explicit Run(Options options) : opt_(std::move(options)) {}
  const Options& opt() const { return opt_; }

  /// Runs `sql` on `session`, timing the call. When `rec` is non-null the
  /// statement is an operation of the timed phase: it is counted, its
  /// latency recorded, its text kept for the replay. An INSERT without
  /// kStagingStmt also records the rows the engine reports.
  Result<QueryResult> Stmt(Session& session, const std::string& sql,
                           unsigned flags, Recorder* rec);
  /// Untimed statement (set-up, verification); an error is fatal.
  QueryResult Must(Session& session, const std::string& sql);

  /// Records an output check; a false `ok` makes the run incorrect.
  void Check(const std::string& name, const std::string& error);

  void Metric(const std::string& name, double value, const char* unit);

  /// Checks that failed so far.
  uint64_t failed_checks() const;

  /// The end-to-end metrics every workload derives the same way from its
  /// recorder and phases.
  /// save_s and load_s come from `times`, db_file_bytes from `persist`
  /// (the final round trip).
  void CommonEndToEnd(const Recorder& rec, double setup_s, const PersistTimes& times,
                      const PersistStats& persist);

  /// Prints the check summary and the final JSON line; returns the exit
  /// code (0 unless the program could not be driven at all).
  int Finish(const Recorder& rec);

  /// Aborts the run: the benchmark could not drive the program.
  [[noreturn]] void Fatal(const std::string& what);

 private:
  Options opt_;
  std::map<std::string, std::pair<uint64_t, uint64_t>> checks_;  // pass, fail
  std::vector<std::string> check_errors_;
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

/// Runs every probe with indexes on and again with `SET use_indexes = off`
/// and checks the answers are bit-identical; returns the fingerprints.
std::vector<std::string> CheckIndexOnOff(Run& run, Session& session,
                                         const std::vector<std::string>& probes);

/// Saves and reloads `db` (SaveLoad), then checks that every
/// probe answers bit-identically on the loaded database (`fingerprints`
/// from CheckIndexOnOff) and that each table in `expected_rows` holds the
/// benchmark's own tally of rows. `after_save` lets the self-test damage
/// the file between save and load.
PersistStats RoundTrip(Run& run, Database& db, const std::string& path,
                       const maybms::DatabaseOptions& options,
                       const std::vector<std::string>& probes,
                       const std::vector<std::string>& fingerprints,
                       const std::map<std::string, uint64_t>& expected_rows,
                       const std::function<void(const std::string&)>& after_save = {});

/// Rows across every table of the catalog.
uint64_t LiveRows(Database& db);

/// Names of the metrics each mode must print (BENCHMARK.json's lists).
const std::vector<std::string>& EndToEndNames();
const std::vector<std::string>& PerLayerNames();

/// Per-layer metrics every workload derives the same way.
void CommonPerLayer(Run* run, const Recorder& rec, const Snap& before,
                    const Snap& after, const ChunkStats& chunks_before,
                    const ChunkStats& chunks_after, const ReplayStats& replay,
                    const PersistStats& persist, uint64_t live_rows);

}  // namespace e2e
