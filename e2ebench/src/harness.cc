#include "e2ebench/src/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>

#include "src/opt/optimizer.h"
#include "src/plan/planner.h"
#include "src/sql/parser.h"
#include "src/storage/persist.h"

namespace e2e {

namespace {

using Clock = std::chrono::steady_clock;
Clock::time_point g_start = Clock::now();

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

}  // namespace

void MarkProcessStart() { g_start = Clock::now(); }

double SinceStartS() {
  return std::chrono::duration<double>(Clock::now() - g_start).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double total = 0;
  for (double x : v) total += x;
  return total / static_cast<double>(v.size());
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::vector<std::string> BatchInserts(const std::string& table,
                                      const std::vector<std::string>& rows,
                                      size_t per_statement) {
  std::vector<std::string> out;
  for (size_t i = 0; i < rows.size(); i += per_statement) {
    std::string sql = "insert into " + table + " values ";
    for (size_t j = i; j < rows.size() && j < i + per_statement; ++j) {
      sql += (j > i ? ", " : "") + rows[j];
    }
    out.push_back(std::move(sql));
  }
  return out;
}

void Recorder::Record(unsigned flags, double ms, uint64_t rows,
                      const std::string& sql) {
  samples.push_back(Sample{flags, ms, rows});
  if (texts.size() < kMaxTexts) texts.push_back(sql);
}

std::vector<double> Recorder::Ms(unsigned any_of_flags) const {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if ((s.flags & any_of_flags) != 0) out.push_back(s.ms);
  }
  return out;
}

double Recorder::StmtPerS() const {
  double ms = 0;
  for (const Sample& s : samples) ms += s.ms;
  return ms > 0 ? static_cast<double>(samples.size()) / (ms / 1000) : 0;
}

double Recorder::IngestRowsPerS() const {
  double rows = 0, ms = 0;
  for (const Sample& s : samples) {
    if ((s.flags & kInsertStmt) == 0) continue;
    rows += static_cast<double>(s.rows);
    ms += s.ms;
  }
  return ms > 0 ? rows / (ms / 1000) : 0;
}

Rows FromResult(const QueryResult& r) {
  Rows out;
  for (const maybms::Column& c : r.schema().columns()) out.columns.push_back(c.name);
  for (const maybms::Row& row : r.rows()) {
    std::vector<std::string> text;
    std::vector<double> num;
    for (const maybms::Value& v : row.values) {
      text.push_back(v.ToString());
      if (v.type() == maybms::TypeId::kInt) {
        num.push_back(static_cast<double>(v.AsInt()));
      } else if (v.type() == maybms::TypeId::kDouble) {
        num.push_back(v.AsDouble());
      } else {
        num.push_back(std::nan(""));
      }
    }
    out.text.push_back(std::move(text));
    out.num.push_back(std::move(num));
  }
  return out;
}

bool FromAsciiTable(const std::vector<std::string>& lines, Rows* out) {
  *out = Rows{};
  bool header = true;
  for (const std::string& line : lines) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    size_t start = 1;
    while (start < line.size()) {
      const size_t bar = line.find('|', start);
      if (bar == std::string::npos) return false;
      std::string cell = line.substr(start, bar - start);
      const size_t b = cell.find_first_not_of(' ');
      const size_t e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? "" : cell.substr(b, e - b + 1));
      start = bar + 1;
    }
    if (header) {
      out->columns = std::move(cells);
      header = false;
      continue;
    }
    if (cells.size() != out->columns.size()) return false;
    std::vector<double> num;
    for (const std::string& c : cells) {
      char* end = nullptr;
      const double d = std::strtod(c.c_str(), &end);
      num.push_back(!c.empty() && end != nullptr && *end == '\0' ? d
                                                                 : std::nan(""));
    }
    out->text.push_back(std::move(cells));
    out->num.push_back(std::move(num));
  }
  return !header;
}

int ColumnIndex(const Rows& rows, const std::string& name) {
  for (size_t i = 0; i < rows.columns.size(); ++i) {
    if (rows.columns[i] == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<Alt> AltsOf(const Rows& rows, const std::string& key,
                        const std::string& alt, const std::string& p) {
  const int k = ColumnIndex(rows, key), a = ColumnIndex(rows, alt),
            q = ColumnIndex(rows, p);
  std::vector<Alt> out;
  if (k < 0 || a < 0 || q < 0) return out;
  for (size_t i = 0; i < rows.size(); ++i) {
    out.push_back(Alt{rows.text[i][k], static_cast<int64_t>(rows.num[i][a]),
                      rows.num[i][q]});
  }
  return out;
}

std::map<std::string, double> GroupsOf(const Rows& rows, const std::string& group,
                                       const std::string& value) {
  const int g = ColumnIndex(rows, group), v = ColumnIndex(rows, value);
  std::map<std::string, double> out;
  if (g < 0 || v < 0) return out;
  for (size_t i = 0; i < rows.size(); ++i) out[rows.text[i][g]] = rows.num[i][v];
  return out;
}

std::vector<double> ColumnOf(const Rows& rows, const std::string& name) {
  const int c = ColumnIndex(rows, name);
  std::vector<double> out;
  if (c < 0) return out;
  for (size_t i = 0; i < rows.size(); ++i) out.push_back(rows.num[i][c]);
  return out;
}

std::string Fingerprint(const QueryResult& r) {
  std::string out;
  for (const maybms::Row& row : r.rows()) {
    for (const maybms::Value& v : row.values) {
      if (v.type() == maybms::TypeId::kDouble) {
        uint64_t bits;
        const double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof(bits));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "d%016llx",
                      static_cast<unsigned long long>(bits));
        out += buf;
      } else {
        out += 'v';
        out += v.ToString();
      }
      out += '\x1f';
    }
    if (r.uncertain()) out += row.condition.ToString();
    out += '\n';
  }
  return out;
}

Snap TakeSnap(SessionManager& manager) {
  Snap out;
  for (auto& [name, value] : manager.StatsSnapshot()) out[name] = value;
  return out;
}

double Delta(const Snap& before, const Snap& after, const std::string& name) {
  auto get = [&name](const Snap& s) {
    auto it = s.find(name);
    return it == s.end() ? 0.0 : it->second;
  };
  return get(after) - get(before);
}

ChunkStats TakeChunkStats(maybms::Catalog& catalog) {
  ChunkStats out;
  for (const std::string& name : catalog.TableNames()) {
    auto table = catalog.GetTable(name);
    if (!table.ok()) continue;
    const auto s = (*table)->snapshot_stats();
    out.rebuilt += s.chunks_rebuilt;
    out.reused += s.chunks_reused;
  }
  return out;
}

/// Distinct statement texts replayed per run: enough for steady medians,
/// few enough that the replay stays a small part of a run.
constexpr size_t kMaxReplayed = 3000;

ReplayStats Replay(SessionManager& manager, const std::vector<std::string>& texts,
                   const maybms::ExecOptions& options) {
  std::vector<double> parse_us, bind_us, opt_us;
  std::set<std::string> seen;
  for (const std::string& text : texts) {
    if (seen.size() == kMaxReplayed) break;
    if (!seen.insert(text).second) continue;
    auto t0 = Clock::now();
    auto stmt = maybms::ParseStatement(text);
    parse_us.push_back(MsSince(t0) * 1000);
    if (!stmt.ok()) continue;
    const maybms::StatementKind kind = (*stmt)->kind;
    if (kind != maybms::StatementKind::kSelect &&
        kind != maybms::StatementKind::kInsert &&
        kind != maybms::StatementKind::kAssert) {
      continue;
    }
    t0 = Clock::now();
    auto bound = maybms::BindStatement(manager.catalog(), **stmt);
    const double bind_ms = MsSince(t0);
    if (!bound.ok() || bound->plan == nullptr) continue;
    bind_us.push_back(bind_ms * 1000);
    t0 = Clock::now();
    maybms::OptimizerCounters counters;
    maybms::Status st = maybms::OptimizePlan(&bound->plan, &manager.stats(), options,
                                             &counters,
                                             &manager.catalog().index_manager());
    if (st.ok()) opt_us.push_back(MsSince(t0) * 1000);
  }
  ReplayStats out;
  out.parse_us_p50 = Quantile(parse_us, 0.5);
  out.bind_us_p50 = Quantile(bind_us, 0.5);
  out.optimize_us_p50 = Quantile(opt_us, 0.5);
  return out;
}

PersistStats SaveLoad(Database& db, const std::string& path,
                      const maybms::DatabaseOptions& load_options,
                      const std::function<void(const std::string&)>& after_save) {
  PersistStats out;
  auto t0 = Clock::now();
  maybms::Status st = maybms::SaveDatabaseToFile(db.catalog(), path);
  out.save_s = MsSince(t0) / 1000;
  if (!st.ok()) {
    out.error = "save: " + st.ToString();
    return out;
  }
  if (after_save) after_save(path);
  std::error_code ec;
  out.file_bytes = std::filesystem::file_size(path, ec);
  auto fresh = std::make_unique<Database>(load_options);
  t0 = Clock::now();
  st = maybms::LoadDatabaseFromFile(path, &fresh->catalog(), &fresh->constraints());
  out.load_s = MsSince(t0) / 1000;
  if (!st.ok()) {
    out.error = "load: " + st.ToString();
    return out;
  }
  out.loaded = std::move(fresh);
  return out;
}

void PersistTimes::Sample(Database& db, const std::string& path,
                          const maybms::DatabaseOptions& options) {
  PersistStats one = SaveLoad(db, path, options);
  std::filesystem::remove(path);
  if (!one.error.empty()) {
    if (error.empty()) error = one.error;
    return;
  }
  save_s.push_back(one.save_s);
  load_s.push_back(one.load_s);
}

std::vector<std::string> CheckIndexOnOff(Run& run, Session& session,
                                         const std::vector<std::string>& probes) {
  std::vector<std::string> with_index;
  for (const std::string& q : probes) {
    with_index.push_back(Fingerprint(run.Must(session, q)));
  }
  run.Must(session, "set use_indexes = off");
  for (size_t i = 0; i < probes.size(); ++i) {
    run.Check("index_on_off_identical",
              CheckIdentical(with_index[i], Fingerprint(run.Must(session, probes[i]))));
  }
  run.Must(session, "set use_indexes = on");
  return with_index;
}

uint64_t LiveRows(Database& db) {
  uint64_t rows = 0;
  for (const std::string& name : db.catalog().TableNames()) {
    auto table = db.catalog().GetTable(name);
    if (table.ok()) rows += (*table)->NumRows();
  }
  return rows;
}

PersistStats RoundTrip(Run& run, Database& db, const std::string& path,
                       const maybms::DatabaseOptions& options,
                       const std::vector<std::string>& probes,
                       const std::vector<std::string>& fingerprints,
                       const std::map<std::string, uint64_t>& expected_rows,
                       const std::function<void(const std::string&)>& after_save) {
  PersistStats persist = SaveLoad(db, path, options, after_save);
  std::filesystem::remove(path);
  run.Check("save_load", persist.error);
  if (persist.loaded == nullptr) return persist;
  Session& loaded = persist.loaded->session();
  for (size_t i = 0; i < probes.size(); ++i) {
    Result<QueryResult> r = loaded.Query(probes[i]);
    run.Check("roundtrip_identical",
              r.ok() ? CheckIdentical(fingerprints[i], Fingerprint(*r))
                     : "query on the loaded database failed: " + r.status().ToString());
  }
  for (const auto& [table, want] : expected_rows) {
    auto t = persist.loaded->catalog().GetTable(table);
    run.Check("roundtrip_row_count",
              t.ok() ? CheckCount((*t)->NumRows(), want) : "table " + table + " missing");
  }
  return persist;
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

Result<QueryResult> Run::Stmt(Session& session, const std::string& sql,
                              unsigned flags, Recorder* rec) {
  const auto t0 = Clock::now();
  Result<QueryResult> r = session.Query(sql);
  const double ms = MsSince(t0);
  if (rec == nullptr) return r;
  ++rec->attempted;
  if (!r.ok()) {
    ++rec->failed;
    std::fprintf(stderr, "statement failed: %s\n  %s\n", sql.c_str(),
                 r.status().ToString().c_str());
    return r;
  }
  uint64_t rows = 0;
  const std::string& msg = r->message();
  if ((flags & kInsertStmt) != 0 && (flags & kStagingStmt) == 0 &&
      msg.rfind("INSERT ", 0) == 0) {
    rows = std::strtoull(msg.c_str() + 7, nullptr, 10);
  }
  rec->Record(flags, ms, rows, sql);
  return r;
}

QueryResult Run::Must(Session& session, const std::string& sql) {
  Result<QueryResult> r = session.Query(sql);
  if (!r.ok()) Fatal("statement failed: " + sql + ": " + r.status().ToString());
  return std::move(*r);
}

void Run::Check(const std::string& name, const std::string& error) {
  auto& [pass, fail] = checks_[name];
  if (error.empty()) {
    ++pass;
    return;
  }
  ++fail;
  if (check_errors_.size() < 20) {
    check_errors_.push_back(name + ": " + error);
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(), error.c_str());
  }
}

uint64_t Run::failed_checks() const {
  uint64_t failed = 0;
  for (const auto& [name, counts] : checks_) failed += counts.second;
  return failed;
}

void Run::Metric(const std::string& name, double value, const char* unit) {
  metrics_[name] = {value, unit};
}

void Run::CommonEndToEnd(const Recorder& rec, double setup_s, const PersistTimes& times,
                         const PersistStats& persist) {
  Check("save_load", times.error);
  Metric("setup_s", setup_s, "s");
  Metric("stmt_per_s", rec.StmtPerS(), "1/s");
  Metric("stmt_ms_p50", Quantile(rec.Ms(~0u), 0.5), "ms");
  Metric("stmt_ms_p90", Quantile(rec.Ms(~0u), 0.9), "ms");
  Metric("conf_query_ms_p50", Quantile(rec.Ms(kConfStmt), 0.5), "ms");
  Metric("aconf_query_ms_p50", Quantile(rec.Ms(kAconfStmt), 0.5), "ms");
  Metric("ingest_rows_per_s", rec.IngestRowsPerS(), "rows/s");
  Metric("save_s", Mean(times.save_s), "s");
  Metric("load_s", Mean(times.load_s), "s");
  Metric("db_file_bytes", static_cast<double>(persist.file_bytes), "B");
  Metric("peak_rss_mib", PeakRssMiB(), "MiB");
}

void CommonPerLayer(Run* run, const Recorder& rec, const Snap& before,
                    const Snap& after, const ChunkStats& chunks_before,
                    const ChunkStats& chunks_after, const ReplayStats& replay,
                    const PersistStats& persist, uint64_t live_rows) {
  auto d = [&](const char* name) { return Delta(before, after, name); };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  run->Metric("sql.parse_us_p50", replay.parse_us_p50, "us");
  run->Metric("plan.bind_us_p50", replay.bind_us_p50, "us");
  run->Metric("opt.optimize_us_p50", replay.optimize_us_p50, "us");
  run->Metric("opt.plans_considered", d("opt.plans_considered"), "count");
  run->Metric("opt.index_scans", d("opt.index_scans"), "count");
  run->Metric("engine.lock_wait_ms", d("stmt.lock_wait.total_ms"), "ms");
  run->Metric("engine.stmt_ms_total", d("stmt.total.total_ms"), "ms");
  run->Metric("exec.execute_ms", d("stmt.execute.total_ms"), "ms");
  run->Metric("exec.rows", d("exec.batch.rows"), "count");
  run->Metric("exec.morsels", d("exec.batch.morsels"), "count");
  run->Metric("pool.tasks_stolen", d("pool.tasks_stolen"), "count");
  run->Metric("lineage.compiles", d("conf.exact.compiles"), "count");
  run->Metric("lineage.compile_nodes", d("conf.exact.compile_nodes"), "count");
  const double lineage_hits = d("dtree_cache.hits") + d("dtree_cache.component.hits");
  run->Metric("lineage.cache_hit_ratio",
              ratio(lineage_hits, lineage_hits + d("dtree_cache.misses") +
                                      d("dtree_cache.component.misses")),
              "ratio");
  run->Metric("conf.exact_ms", d("conf.exact.total_ms"), "ms");
  run->Metric("conf.aconf_ms", d("conf.aconf.total_ms"), "ms");
  run->Metric("conf.kl_trials_per_aconf",
              ratio(d("conf.kl.trials"), d("conf.aconf.calls")), "count");
  const double est_hits = d("dtree_cache.estimate.hits");
  run->Metric("conf.estimate_hit_ratio",
              ratio(est_hits, est_hits + d("dtree_cache.estimate.misses")), "ratio");
  run->Metric("cond.assert_ms_p50", Quantile(rec.Ms(kAssertStmt), 0.5), "ms");
  run->Metric("cond.posterior_query_ms_p50", Quantile(rec.Ms(kPosteriorStmt), 0.5),
              "ms");
  run->Metric("storage.insert_ms_p50", Quantile(rec.Ms(kInsertStmt), 0.5), "ms");
  run->Metric("storage.snapshot_chunks_rebuilt",
              static_cast<double>(chunks_after.rebuilt - chunks_before.rebuilt),
              "count");
  run->Metric("storage.snapshot_chunks_reused",
              static_cast<double>(chunks_after.reused - chunks_before.reused),
              "count");
  run->Metric("storage.file_bytes_per_row",
              ratio(static_cast<double>(persist.file_bytes),
                    static_cast<double>(live_rows)),
              "B");
  run->Metric("index.lookups", d("index.lookups"), "count");
  run->Metric("index.rows_per_lookup",
              ratio(d("index.scan_rows"), d("index.lookups")), "count");
  const double pool_hits = d("bufpool.hits");
  run->Metric("bufpool.hit_ratio", ratio(pool_hits, pool_hits + d("bufpool.misses")),
              "ratio");
  run->Metric("bufpool.evictions", d("bufpool.evictions"), "count");
  run->Metric("index.rebuilds", d("index.rebuilds"), "count");
  run->Metric("index.appended_rows", d("index.appended_rows"), "count");
  run->Metric("server.request_ms_p50", 0, "ms");
  run->Metric("server.bytes_per_request",
              ratio(d("server.bytes_in") + d("server.bytes_out"),
                    d("server.requests")),
              "B");
  run->Metric("trace.stmt_per_s", rec.StmtPerS(), "1/s");
}

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s",         "stmt_per_s", "stmt_ms_p50",        "stmt_ms_p90",
      "conf_query_ms_p50", "aconf_query_ms_p50", "ingest_rows_per_s",
      "save_s",          "load_s",     "db_file_bytes",      "peak_rss_mib"};
  return names;
}

const std::vector<std::string>& PerLayerNames() {
  static const std::vector<std::string> names = {
      "sql.parse_us_p50",
      "plan.bind_us_p50",
      "opt.optimize_us_p50",
      "opt.plans_considered",
      "opt.index_scans",
      "engine.lock_wait_ms",
      "engine.stmt_ms_total",
      "exec.execute_ms",
      "exec.rows",
      "exec.morsels",
      "pool.tasks_stolen",
      "lineage.compiles",
      "lineage.compile_nodes",
      "lineage.cache_hit_ratio",
      "conf.exact_ms",
      "conf.aconf_ms",
      "conf.kl_trials_per_aconf",
      "conf.estimate_hit_ratio",
      "cond.assert_ms_p50",
      "cond.posterior_query_ms_p50",
      "storage.insert_ms_p50",
      "storage.snapshot_chunks_rebuilt",
      "storage.snapshot_chunks_reused",
      "storage.file_bytes_per_row",
      "index.lookups",
      "index.rows_per_lookup",
      "bufpool.hit_ratio",
      "bufpool.evictions",
      "index.rebuilds",
      "index.appended_rows",
      "server.request_ms_p50",
      "server.bytes_per_request",
      "trace.stmt_per_s"};
  return names;
}

void Run::Fatal(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

int Run::Finish(const Recorder& rec) {
  // Per-class latency summary on standard error, for reading a run by eye.
  static const std::pair<unsigned, const char*> kClasses[] = {
      {kConfStmt, "conf"},     {kAconfStmt, "aconf"},   {kInsertStmt, "insert"},
      {kAssertStmt, "assert"}, {kPosteriorStmt, "posterior"},
      {kLookupStmt, "lookup"}, {kEsumStmt, "esum"},     {kDmlStmt, "dml"},
      {kOtherStmt, "other"}};
  for (const auto& [flag, label] : kClasses) {
    const std::vector<double> ms = rec.Ms(flag);
    if (ms.empty()) continue;
    std::fprintf(stderr, "  %-10s n=%-6zu p10=%9.3f p50=%9.3f p90=%9.3f ms\n", label,
                 ms.size(), Quantile(ms, 0.1), Quantile(ms, 0.5), Quantile(ms, 0.9));
  }
  // The check summary (name=passed/failed) precedes the result line; the
  // benchmark's own tests compare it between the traced and untraced run.
  std::string summary = "checks:";
  bool correct = true;
  for (const auto& [name, counts] : checks_) {
    summary += " " + name + "=" + std::to_string(counts.first) + "/" +
               std::to_string(counts.second);
    if (counts.second != 0) correct = false;
  }
  if (checks_.empty()) correct = false;
  std::printf("%s\n", summary.c_str());
  const std::vector<std::string>& names =
      opt_.trace ? PerLayerNames() : EndToEndNames();
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rec.attempted);
  json += ", \"failed\": " + std::to_string(rec.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < names.size(); ++i) {
    auto it = metrics_.find(names[i]);
    if (it == metrics_.end()) Fatal("metric not measured: " + names[i]);
    const double v = it->second.first;
    if (!std::isfinite(v)) Fatal("metric not finite: " + names[i]);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + names[i] + "\": {\"value\": " + buf + ", \"unit\": \"" +
            it->second.second + "\"}";
  }
  json += "}}";
  if (rec.attempted == 0) Fatal("no operation attempted");
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace e2e
