// server_sessions: three closed-loop Clients over the AF_UNIX line protocol
// against an in-process Server; every session runs with num_threads = 1.
// One thread drives the three clients in turn, a round each, so one request
// is in flight at a time: on a host of a few shared cores, client threads
// running beside the server's workers time the scheduler, not the program.
//
//   acct = repair key code in acct_raw weight by w, indexed on code
//
// The account codes are long strings, so the code index spans several
// times the 1024 frames of the live index pool and lookups evict. Each
// client round: prior tconf() lookups, a per-session ASSERT on one key,
// posterior tconf() of the asserted key and of an untouched key, a small
// what-if conf() and aconf() over a code range, CLEAR EVIDENCE, and an
// INSERT into the client's own log table.
#include <cstdio>

#include "e2ebench/src/workloads.h"
#include "src/server/server.h"

namespace e2e {
namespace {

constexpr int kClients = 3;
constexpr int kCodes = 40000;
constexpr int kRegions = 6;
constexpr int kRangeCodes = 8;       // codes covered by a what-if statement
constexpr int kLookupsPerRound = 4;
constexpr int kLogRowsPerInsert = 4;
constexpr int kRoundsPerSecond = 110;  // per client
constexpr int kInsertBatch = 500;      // rows per set-up INSERT
constexpr int kPersistSamples = 16;    // timed saves and loads
const char* const kAconf = "aconf(0.1, 0.1)";
constexpr double kAconfEps = 0.1;
constexpr double kAconfDelta = 0.1;

/// Account code n: a fixed-width number prefix (so ranges select runs of
/// consecutive codes) and a per-code filler that makes index keys long.
std::string Code(int n) {
  std::string code = Format("ACCT-%08d-", n);
  uint64_t h = 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(n + 1);
  while (code.size() < 200) {
    h ^= h >> 29;
    h *= 0xbf58476d1ce4e5b9ULL;
    code += "0123456789abcdef"[h & 15];
  }
  return code;
}

std::string Lookup(const std::string& code) {
  return "select code, alt, tconf() as p from acct where code = '" + code + "'";
}

std::string WhatIf(int first, const char* agg) {
  return Format(
      "select region, %s as p from acct where code >= 'ACCT-%08d' and "
      "code < 'ACCT-%08d' group by region",
      agg, first, first + kRangeCodes);
}

struct Data {
  std::vector<std::string> codes;    // code n
  std::vector<std::string> lookups;  // Lookup(code n)
  std::vector<std::string> rows;     // SQL tuples
  RawWeights weights;                // code -> alt -> w
};

Data Generate(uint64_t seed) {
  Gen g(seed);
  Data d;
  for (int n = 0; n < kCodes; ++n) {
    d.codes.push_back(Code(n));
    d.lookups.push_back(Lookup(d.codes.back()));
    const int alts = 1 + static_cast<int>(g.Below(3));
    const std::string& code = d.codes.back();
    for (int a = 0; a < alts; ++a) {
      const double w = g.Money(1, 10);
      d.weights[code][a] = w;
      d.rows.push_back(Format("('%s', %d, %d, %.2f, %.2f)", code.c_str(), a,
                              static_cast<int>(g.Below(kRegions)),
                              g.Money(0, 5000), w));
    }
  }
  g.Shuffle(&d.rows);  // index keys arrive in random order
  return d;
}

/// One client: its connection, its generator, its what-if answers.
struct ClientState {
  maybms::Client client;
  Gen g{0};
  int id = 0;
  int log_rows = 0;
  std::map<std::string, double> exact, approx;  // what-if conf vs aconf
};

}  // namespace

int RunServerSessions(Run& run) {
  const Options& opt = run.opt();
  const Data data = Generate(opt.seed);

  maybms::DatabaseOptions db_options;
  db_options.seed = opt.seed;
  db_options.exec.num_threads = 1;
  Database db(db_options);
  Session& root = db.session();
  run.Must(root, "create table acct_raw (code text, alt int, region int, "
                 "bal double, w double)");
  for (const std::string& sql : BatchInserts("acct_raw", data.rows, kInsertBatch)) {
    run.Must(root, sql);
  }
  run.Must(root, "create table acct as select * from "
                 "(repair key code in acct_raw weight by w) r");
  run.Must(root, "create index acct_code on acct (code)");
  for (int c = 0; c < kClients; ++c) {
    run.Must(root, Format("create table log_%d (seq int, code text, amount double)", c));
  }
  maybms::SessionOptions session_defaults;
  session_defaults.seed = opt.seed;
  session_defaults.exec.num_threads = 1;
  maybms::Server server(&db.session_manager(), session_defaults, kClients);
  const std::string socket = opt.tmp_dir + "/server.sock";
  if (!server.Start(socket).ok()) run.Fatal("server failed to start on " + socket);
  std::vector<std::unique_ptr<ClientState>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto state = std::make_unique<ClientState>();
    state->id = c;
    state->g = Gen(opt.seed * 31 + static_cast<uint64_t>(c));
    if (!state->client.Connect(socket).ok()) run.Fatal("client failed to connect");
    clients.push_back(std::move(state));
  }
  const double setup_s = SinceStartS();

  auto request = [&run](ClientState& cs, const std::string& sql, unsigned flags,
                        Recorder* rec, Rows* rows) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<maybms::ServerReply> reply = cs.client.Request(sql);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    const bool ok = reply.ok() && reply->ok;
    if (!ok) {
      std::fprintf(stderr, "request failed: %s\n  %s\n", sql.c_str(),
                   reply.ok() ? reply->message.c_str()
                              : reply.status().ToString().c_str());
    }
    if (rows != nullptr && ok) {
      if (!FromAsciiTable(reply->lines, rows)) {
        run.Check("server_reply_framing", "unparsable table");
      }
    }
    if (rec == nullptr) return ok;
    ++rec->attempted;
    if (!ok) {
      ++rec->failed;
      return ok;
    }
    rec->Record(flags, ms, (flags & kInsertStmt) ? kLogRowsPerInsert : 0, sql);
    return ok;
  };
  auto round = [&](ClientState& cs, Recorder* rec) {
    Rows rows;
    for (int i = 0; i < kLookupsPerRound; ++i) {
      const int n = static_cast<int>(cs.g.Below(kCodes));
      if (request(cs, data.lookups[n], kLookupStmt, rec, &rows)) {
        run.Check("tconf_repair_key", CheckRepairKey(AltsOf(rows, "code", "alt", "p"),
                                                 data.weights, {data.codes[n]}, kWireTol));
      }
    }
    // What-if: evidence on one key inside a small code range.
    const int first = static_cast<int>(cs.g.Below(kCodes - kRangeCodes));
    const int key = first + static_cast<int>(cs.g.Below(kRangeCodes));
    const std::string& code = data.codes[key];
    const int64_t alt = static_cast<int64_t>(cs.g.Below(data.weights.at(code).size()));
    request(cs, Format("assert select * from acct where code = '%s' and alt = %lld",
                       code.c_str(), static_cast<long long>(alt)),
            kAssertStmt, rec, nullptr);
    if (request(cs, data.lookups[key], kPosteriorStmt | kLookupStmt, rec, &rows)) {
      run.Check("posterior_asserted_key",
            CheckPosterior(AltsOf(rows, "code", "alt", "p"), code, alt, kWireTol));
    }
    int other = static_cast<int>(cs.g.Below(kCodes));
    if (other == key) other = (key + 1) % kCodes;
    if (request(cs, data.lookups[other], kPosteriorStmt | kLookupStmt, rec, &rows)) {
      run.Check("posterior_independent_key",
            CheckRepairKey(AltsOf(rows, "code", "alt", "p"), data.weights,
                           {data.codes[other]}, kWireTol));
    }
    Rows exact, approx;
    const bool exact_ok =
        request(cs, WhatIf(first, "conf()"), kConfStmt | kPosteriorStmt, rec, &exact);
    const bool approx_ok =
        request(cs, WhatIf(first, kAconf), kAconfStmt | kPosteriorStmt, rec, &approx);
    if (exact_ok && approx_ok) {
      run.Check("probability_range", CheckProbabilities(ColumnOf(exact, "p")));
      run.Check("probability_range", CheckProbabilities(ColumnOf(approx, "p")));
      const std::string tag = std::to_string(cs.exact.size()) + "/";
      for (auto& [k, v] : GroupsOf(exact, "region", "p")) cs.exact[tag + k] = v;
      for (auto& [k, v] : GroupsOf(approx, "region", "p")) cs.approx[tag + k] = v;
    }
    request(cs, "clear evidence", kOtherStmt, rec, nullptr);
    std::string insert = Format("insert into log_%d values ", cs.id);
    for (int i = 0; i < kLogRowsPerInsert; ++i) {
      insert += Format("%s(%d, '%s', %.2f)", i ? ", " : "", cs.log_rows + i,
                       data.codes[cs.g.Below(kCodes)].c_str(),
                       cs.g.Money(1, 500));
    }
    if (request(cs, insert, kInsertStmt, rec, nullptr)) cs.log_rows += kLogRowsPerInsert;
  };
  for (auto& cs : clients) round(*cs, nullptr);  // warm-up
  const Snap before = TakeSnap(db.session_manager());
  const ChunkStats chunks_before = TakeChunkStats(db.catalog());
  // Between two rounds every client is idle; the root session's database
  // is saved and loaded then, kPersistSamples times spread over the run.
  Recorder rec;
  PersistTimes persist_times;
  const int rounds = RoundsFor(opt.seconds, kRoundsPerSecond);
  for (int i = 0; i < rounds; ++i) {
    for (auto& cs : clients) round(*cs, &rec);
    if (SampleAfter(i, rounds, kPersistSamples)) {
      persist_times.Sample(db, opt.tmp_dir + "/server_sessions.sample.db", db_options);
    }
  }
  const Snap after = TakeSnap(db.session_manager());
  const ChunkStats chunks_after = TakeChunkStats(db.catalog());

  for (auto& cs : clients) {
    (void)cs->client.Request("\\q");
    cs->client.Close();
    run.Check("aconf_within_eps",
              CheckAconf(cs->exact, cs->approx, kAconfEps, kAconfDelta));
  }
  server.Stop();

  // --- verification on the root session (untimed).
  std::vector<std::string> probes;
  Gen g(opt.seed ^ 0xabc);
  for (int i = 0; i < 8; ++i) probes.push_back(data.lookups[g.Below(kCodes)]);
  probes.push_back(WhatIf(static_cast<int>(g.Below(kCodes - kRangeCodes)), "conf()"));
  const std::vector<std::string> fingerprints = CheckIndexOnOff(run, root, probes);
  std::map<std::string, uint64_t> expected_rows = {{"acct", data.rows.size()}};
  for (auto& cs : clients) {
    expected_rows["log_" + std::to_string(cs->id)] = static_cast<uint64_t>(cs->log_rows);
  }
  const uint64_t live_rows = LiveRows(db);
  const PersistStats persist =
      RoundTrip(run, db, opt.tmp_dir + "/server_sessions.db", db_options, probes,
                fingerprints, expected_rows);

  run.CommonEndToEnd(rec, setup_s, persist_times, persist);
  if (opt.trace) {
    const ReplayStats replay = Replay(db.session_manager(), rec.texts, db_options.exec);
    CommonPerLayer(&run, rec, before, after, chunks_before, chunks_after, replay,
                   persist, live_rows);
    std::vector<double> all;
    for (const Sample& s : rec.samples) all.push_back(s.ms);
    run.Metric("server.request_ms_p50", Quantile(all, 0.5), "ms");
  }
  return run.Finish(rec);
}

}  // namespace e2e
