// ingest_refresh: writes beside reads on one session with num_threads = 1.
//
//   obs_raw  certain readings, one row per (sid, ts, alt), indexed on batch
//   obs      = repair key sid, ts in obs_raw weight by w, indexed on sid
//
// A stream of batches (batch b carries ts = b) with a retention window:
// obs holds the newest kWindow batches. Each batch appends new readings to
// obs_raw and moves them into obs with INSERT ... SELECT * FROM (repair key
// ...); the conf() dashboard over all of obs is then refreshed, an aconf()
// panel over the newest batches runs, and a few indexed tconf() lookups
// follow. Each round of five batches also runs one UPDATE and the
// retention DELETE of the five batches that left the window, so every
// round works on a table of the same size. The run ends by saving the
// database to a file, loading it into a fresh Database, and querying the
// dashboard again.
#include <cstdio>
#include <deque>

#include "e2ebench/src/workloads.h"

namespace e2e {
namespace {

constexpr int kSensors = 3000;       // sid domain
constexpr int kBatchKeys = 30;       // new (sid, ts) keys per batch, distinct sids
constexpr int kWindow = 200;         // batches obs keeps (≈6,000 keys)
constexpr int kRegions = 8;
constexpr int kBatchesPerRound = 5;  // plus one UPDATE and one retention DELETE
constexpr int kRoundsPerSecond = 24;
constexpr int kLookupsPerBatch = 3;
constexpr int kAconfSpan = 3;        // batches covered by the aconf panel
constexpr int kInsertBatch = 500;    // rows per set-up INSERT
constexpr int kPersistSamples = 16;  // timed saves and loads (see SampleAfter)
constexpr size_t kAconfChecked = 8;  // last panels compared with exact conf()
const char* const kAconf = "aconf(0.1, 0.1)";
constexpr double kAconfEps = 0.1;
constexpr double kAconfDelta = 0.1;
const char* const kDashboard =
    "select region, conf() as p from obs where val > 50 group by region";

std::string Key(int sid, int ts) {
  return std::to_string(sid) + "/" + std::to_string(ts);
}

/// The stream of raw readings and the benchmark's own tally of what obs
/// holds: live keys with their weights, by sensor and by batch.
struct Stream {
  explicit Stream(uint64_t seed) : g(seed) {}
  Gen g;
  RawWeights weights;                         // "sid/ts" -> alt -> w
  std::map<int, std::vector<int>> ts_of_sid;  // live keys by sensor
  std::map<int, std::vector<int>> sids_of_ts;  // live keys by batch
  uint64_t live_rows = 0;

  /// Live keys of sensor `sid`, as "sid/ts".
  std::vector<std::string> KeysOf(int sid) const {
    std::vector<std::string> out;
    auto it = ts_of_sid.find(sid);
    if (it == ts_of_sid.end()) return out;
    for (int ts : it->second) out.push_back(Key(sid, ts));
    return out;
  }

  /// SQL tuples of batch `batch` (ts = batch, distinct sids).
  std::vector<std::string> Batch(int batch) {
    std::vector<int> sids(kSensors);
    for (int i = 0; i < kSensors; ++i) sids[i] = i;
    g.Shuffle(&sids);
    std::vector<std::string> rows;
    for (int k = 0; k < kBatchKeys; ++k) {
      const int sid = sids[k];
      const int alts = 1 + static_cast<int>(g.Below(3));
      ts_of_sid[sid].push_back(batch);
      sids_of_ts[batch].push_back(sid);
      for (int a = 0; a < alts; ++a) {
        const double w = g.Money(1, 10);
        weights[Key(sid, batch)][a] = w;
        rows.push_back(Format("(%d, %d, %d, %d, %d, %.2f, %.2f)", batch, sid, batch,
                              a, sid % kRegions, g.Money(0, 100), w));
      }
    }
    live_rows += rows.size();
    return rows;
  }

  /// Forgets every key of batches <= `last` (the retention DELETE).
  void Retire(int last) {
    while (!sids_of_ts.empty() && sids_of_ts.begin()->first <= last) {
      const int ts = sids_of_ts.begin()->first;
      for (int sid : sids_of_ts.begin()->second) {
        auto it = weights.find(Key(sid, ts));
        live_rows -= it->second.size();
        weights.erase(it);
        std::erase(ts_of_sid[sid], ts);
      }
      sids_of_ts.erase(sids_of_ts.begin());
    }
  }
};

std::string MoveBatch(int batch) {
  return Format(
      "insert into obs select sid, ts, alt, region, val, w from "
      "(repair key sid, ts in (select * from obs_raw where batch = %d) "
      "weight by w) r",
      batch);
}

std::string AconfPanel(int first_ts, const char* agg) {
  return Format(
      "select region, %s as p from obs where ts >= %d and ts < %d "
      "and val > 50 group by region",
      agg, first_ts, first_ts + kAconfSpan);
}

std::string Lookup(int sid) {
  return Format("select sid, ts, alt, tconf() as p from obs where sid = %d", sid);
}

std::vector<Alt> LookupAlts(const Rows& rows) {
  std::vector<Alt> out;
  for (size_t i = 0; i < rows.size(); ++i) {
    out.push_back(Alt{rows.text[i][0] + "/" + rows.text[i][1],
                      static_cast<int64_t>(rows.num[i][2]), rows.num[i][3]});
  }
  return out;
}

}  // namespace

int RunIngestRefresh(Run& run) {
  const Options& opt = run.opt();
  maybms::DatabaseOptions db_options;
  db_options.seed = opt.seed;
  db_options.exec.num_threads = 1;
  Database db(db_options);
  Session& s = db.session();
  Stream stream(opt.seed);

  // Set-up: the first window of batches, loaded and derived in bulk.
  run.Must(s, "create table obs_raw (batch int, sid int, ts int, alt int, "
              "region int, val double, w double)");
  run.Must(s, "create index obs_raw_batch on obs_raw (batch)");
  std::vector<std::string> initial;
  for (int b = 1; b <= kWindow; ++b) {
    for (std::string& row : stream.Batch(b)) initial.push_back(std::move(row));
  }
  for (const std::string& sql : BatchInserts("obs_raw", initial, kInsertBatch)) {
    run.Must(s, sql);
  }
  run.Must(s, Format("create table obs as select sid, ts, alt, region, val, w from "
                     "(repair key sid, ts in (select * from obs_raw where batch <= %d) "
                     "weight by w) r",
                     kWindow));
  run.Must(s, "create index obs_sid on obs (sid)");
  const double setup_s = SinceStartS();

  Gen g(opt.seed ^ 0x51e5);
  int batch = kWindow;
  std::deque<std::pair<int, Rows>> aconf_results;  // (first ts, result)
  auto one_batch = [&](Recorder* rec) {
    ++batch;
    for (const std::string& sql : BatchInserts("obs_raw", stream.Batch(batch), kInsertBatch)) {
      run.Stmt(s, sql, kInsertStmt | kStagingStmt, rec);
    }
    run.Stmt(s, MoveBatch(batch), kInsertStmt, rec);
    auto dash = run.Stmt(s, kDashboard, kConfStmt, rec);
    if (dash.ok()) {
      run.Check("probability_range",
                CheckProbabilities(ColumnOf(FromResult(*dash), "p")));
    }
    const int first = batch + 1 - kAconfSpan;
    auto panel = run.Stmt(s, AconfPanel(first, kAconf), kAconfStmt, rec);
    if (panel.ok()) {
      Rows rows = FromResult(*panel);
      run.Check("probability_range", CheckProbabilities(ColumnOf(rows, "p")));
      aconf_results.emplace_back(first, std::move(rows));
      if (aconf_results.size() > kAconfChecked) aconf_results.pop_front();
    }
    for (int i = 0; i < kLookupsPerBatch; ++i) {
      const int sid = static_cast<int>(g.Below(kSensors));
      auto r = run.Stmt(s, Lookup(sid), kLookupStmt, rec);
      if (r.ok()) {
        run.Check("tconf_repair_key", CheckRepairKey(LookupAlts(FromResult(*r)),
                                                     stream.weights,
                                                     stream.KeysOf(sid), kTol));
      }
    }
  };
  auto round = [&](Recorder* rec) {
    for (int b = 0; b < kBatchesPerRound; ++b) one_batch(rec);
    run.Stmt(s, Format("update obs set val = val + 1.0 where sid = %d",
                       static_cast<int>(g.Below(kSensors))),
             kDmlStmt, rec);
    stream.Retire(batch - kWindow);
    run.Stmt(s, Format("delete from obs where ts <= %d", batch - kWindow), kDmlStmt,
             rec);
  };

  round(nullptr);  // warm-up
  const Snap before = TakeSnap(db.session_manager());
  const ChunkStats chunks_before = TakeChunkStats(db.catalog());
  Recorder rec;
  PersistTimes persist_times;
  const int rounds = RoundsFor(opt.seconds, kRoundsPerSecond);
  for (int i = 0; i < rounds; ++i) {
    round(&rec);
    if (SampleAfter(i, rounds, kPersistSamples)) {
      persist_times.Sample(db, opt.tmp_dir + "/ingest_refresh.sample.db", db_options);
    }
  }
  const Snap after = TakeSnap(db.session_manager());
  const ChunkStats chunks_after = TakeChunkStats(db.catalog());

  // --- verification (untimed).
  {
    const Rows now = FromResult(run.Must(s, kDashboard));
    const Rows higher = FromResult(run.Must(
        s, "select region, conf() as p from obs where val > 60 group by region"));
    run.Check("conf_monotone_in_threshold",
              CheckMonotone(GroupsOf(now, "region", "p"),
                            GroupsOf(higher, "region", "p"), kTol));
  }
  {
    std::map<std::string, double> exact, approx;
    for (const auto& [first, rows] : aconf_results) {
      const Rows e = FromResult(run.Must(s, AconfPanel(first, "conf()")));
      const std::string tag = std::to_string(first) + "/";
      for (auto& [k, v] : GroupsOf(rows, "region", "p")) approx[tag + k] = v;
      for (auto& [k, v] : GroupsOf(e, "region", "p")) exact[tag + k] = v;
    }
    run.Check("aconf_within_eps", CheckAconf(exact, approx, kAconfEps, kAconfDelta));
  }
  std::vector<std::string> probes = {kDashboard};
  for (int i = 0; i < 8; ++i) {
    probes.push_back(Lookup(static_cast<int>(g.Below(kSensors))));
  }
  const std::vector<std::string> fingerprints = CheckIndexOnOff(run, s, probes);
  auto obs = db.catalog().GetTable("obs");
  run.Check("row_count_tally",
            CheckCount(obs.ok() ? (*obs)->NumRows() : 0, stream.live_rows));
  const uint64_t live_rows = LiveRows(db);
  const PersistStats persist =
      RoundTrip(run, db, opt.tmp_dir + "/ingest_refresh.db", db_options, probes,
                fingerprints, {{"obs", stream.live_rows}});

  run.CommonEndToEnd(rec, setup_s, persist_times, persist);
  if (opt.trace) {
    const ReplayStats replay = Replay(db.session_manager(), rec.texts, db_options.exec);
    CommonPerLayer(&run, rec, before, after, chunks_before, chunks_after, replay,
                   persist, live_rows);
  }
  return run.Finish(rec);
}

}  // namespace e2e
