// tpch_conf: analytic confidence queries over an uncertain TPC-H-style
// database generated here from the seed.
//
//   customer  = repair key ck in customer_raw weight by w   (1-3 alts/key)
//   orders    = repair key ok in orders_raw weight by w     (1-2 alts/key)
//   lineitem  = pick tuples from li_raw independently with probability p
//
// One session, num_threads = 4 (the shared pool is max(4, hardware) wide).
// Each round runs a fixed mix: exact conf() over 2- and 3-way joins grouped
// by a column, aconf(ε,δ), tconf() point lookups, and esum/ecount. A fixed
// share of the parameterized statements repeats an earlier parameter, so
// its lineage is served from the d-tree / estimate caches while fresh
// parameters go to the compiler.
#include <cstdio>
#include <set>

#include "e2ebench/src/workloads.h"

namespace e2e {
namespace {

constexpr int kCustomers = 1500;
constexpr int kOrders = 6000;
constexpr int kLinesPerOrder = 3;
constexpr int kNations = 25;
constexpr int kSegments = 5;
constexpr int kInsertBatch = 500;
constexpr unsigned kThreads = 4;
constexpr int kRoundsPerSecond = 36;
// Side samples spread evenly over the timed phase (see SampleAfter).
constexpr int kIngestPasses = 32;    // timed loads of the lineitem rows
constexpr int kPersistSamples = 72;  // timed saves and loads
constexpr int kAconfWidth = 150;  // customers per aconf statement
constexpr int kEsumWidth = 50;   // customers per esum statement
const char* const kAconf = "aconf(0.1, 0.1)";
constexpr double kAconfEps = 0.1;
constexpr double kAconfDelta = 0.1;

struct Data {
  std::vector<std::string> customer, orders, lineitem;  // SQL tuples
  RawWeights customer_w, orders_w;
};

Data Generate(uint64_t seed) {
  Gen g(seed);
  Data d;
  for (int ck = 0; ck < kCustomers; ++ck) {
    const int alts = 1 + static_cast<int>(g.Below(3));
    for (int a = 0; a < alts; ++a) {
      const double w = g.Money(1, 10);
      d.customer_w[std::to_string(ck)][a] = w;
      d.customer.push_back(Format("(%d, %d, %d, %d, %.2f, %.2f)", ck, a,
                                  static_cast<int>(g.Below(kNations)),
                                  static_cast<int>(g.Below(kSegments)),
                                  g.Money(-1000, 10000), w));
    }
  }
  for (int ok = 0; ok < kOrders; ++ok) {
    const int ck = static_cast<int>(g.Below(kCustomers));
    const int alts = 1 + static_cast<int>(g.Below(2));
    for (int a = 0; a < alts; ++a) {
      const double w = g.Money(1, 10);
      d.orders_w[std::to_string(ok)][a] = w;
      d.orders.push_back(Format("(%d, %d, %d, %d, %.2f, %.2f)", ok, a, ck,
                                static_cast<int>(g.Below(3)),
                                g.Money(1000, 100000), w));
    }
    for (int ln = 0; ln < kLinesPerOrder; ++ln) {
      d.lineitem.push_back(Format("(%d, %d, %d, %.2f, %.2f)", ok, ln,
                                  1 + static_cast<int>(g.Below(50)),
                                  g.Money(0, 0.1), g.Money(0.3, 0.9)));
    }
  }
  return d;
}

std::string Conf2(int seg, double price, const char* agg = "conf()") {
  return Format(
      "select c.nation, %s as p from customer c, orders o where c.ck = o.ck "
      "and c.seg = %d and o.price > %.2f group by c.nation",
      agg, seg, price);
}
std::string Conf3(int nation, double price) {
  return Format(
      "select o.status, conf() as p from customer c, orders o, lineitem l "
      "where c.ck = o.ck and o.ok = l.ok and c.nation = %d and l.qty > 25 "
      "and o.price > %.2f group by o.status",
      nation, price);
}
std::string Aconf(int lo, double price, const char* agg) {
  return Format(
      "select c.nation, %s as p from customer c, orders o where c.ck = o.ck "
      "and c.ck >= %d and c.ck < %d and o.price > %.2f group by c.nation",
      agg, lo, lo + kAconfWidth, price);
}
std::string EsumWhere(int lo, double price) {
  return Format("where o.ck >= %d and o.ck < %d and o.price > %.2f", lo,
                lo + kEsumWidth, price);
}
std::string Esum(int lo, double price) {
  return "select o.status, esum(o.price) as s, ecount() as n from orders o " +
         EsumWhere(lo, price) + " group by o.status";
}
std::string EsumRows(int lo, double price) {
  return "select o.status, o.price, tconf() as p from orders o " +
         EsumWhere(lo, price);
}
std::string LookupOrder(int ok) {
  return Format("select ok, alt, tconf() as p from orders where ok = %d", ok);
}
std::string LookupCustomer(int ck) {
  return Format("select ck, alt, tconf() as p from customer where ck = %d", ck);
}

/// Fresh parameters of one statement type and the pool repeats are drawn
/// from. A parameter is a small integer (segment, nation, range start) and
/// a price threshold with cent resolution: millions of values, so a fresh
/// draw is never refused more than a few times.
using Param = std::pair<int, double>;
struct Params {
  std::set<Param> used;
  std::vector<Param> order;

  Param Fresh(Gen& g, int int_range, double price_lo, double price_hi) {
    for (;;) {
      const Param p(static_cast<int>(g.Below(int_range)), g.Money(price_lo, price_hi));
      if (used.insert(p).second) {
        order.push_back(p);
        return p;
      }
    }
  }
  Param Repeat(Gen& g) { return order[g.Below(order.size())]; }
};

}  // namespace

int RunTpchConf(Run& run) {
  const Options& opt = run.opt();
  const Data data = Generate(opt.seed);

  maybms::DatabaseOptions db_options;
  db_options.seed = opt.seed;
  db_options.exec.num_threads = kThreads;
  Database db(db_options);
  Session& s = db.session();

  // --- set-up: load the raw tables through INSERT, derive the U-relations.
  run.Must(s, "create table customer_raw (ck int, alt int, nation int, seg int, "
              "bal double, w double)");
  run.Must(s, "create table orders_raw (ok int, alt int, ck int, status int, "
              "price double, w double)");
  run.Must(s, "create table li_raw (ok int, ln int, qty int, disc double, "
              "p double)");
  for (const auto& [table, rows] : {std::pair{"customer_raw", &data.customer},
                                     std::pair{"orders_raw", &data.orders},
                                     std::pair{"li_raw", &data.lineitem}}) {
    for (const std::string& sql : BatchInserts(table, *rows, kInsertBatch)) {
      run.Must(s, sql);
    }
  }
  run.Must(s, "create table customer as select * from "
              "(repair key ck in customer_raw weight by w) r");
  run.Must(s, "create table orders as select * from "
              "(repair key ok in orders_raw weight by w) r");
  run.Must(s, "create table lineitem as select * from "
              "(pick tuples from li_raw independently with probability p) r");
  run.Must(s, "create index customer_ck on customer (ck)");
  run.Must(s, "create index orders_ok on orders (ok)");
  run.Must(s, "create index orders_ck on orders (ck)");
  const double setup_s = SinceStartS();

  // --- the statement mix.
  Gen g(opt.seed ^ 0x7c0f);
  Params conf2, conf3, aconf, esum;
  std::map<std::string, Rows> first_results;  // for the verification phase
  auto check_probs = [&](const Rows& rows, const char* column) {
    run.Check("probability_range", CheckProbabilities(ColumnOf(rows, column)));
  };
  auto stmt = [&](const std::string& sql, unsigned flags, Recorder* rec) -> Rows {
    Result<QueryResult> r = run.Stmt(s, sql, flags, rec);
    if (!r.ok()) return Rows{};
    Rows rows = FromResult(*r);
    first_results.try_emplace(sql, rows);
    return rows;
  };
  auto round = [&](Recorder* rec) {
    std::vector<std::pair<std::string, unsigned>> mix;
    for (int i = 0; i < 2; ++i) {
      auto [seg, price] = conf2.Fresh(g, kSegments, 20000, 90000);
      mix.emplace_back(Conf2(seg, price), kConfStmt);
    }
    auto [seg, price] = conf2.Repeat(g);
    mix.emplace_back(Conf2(seg, price), kConfStmt);
    auto [nation, floor] = conf3.Fresh(g, kNations, 1000, 30000);
    mix.emplace_back(Conf3(nation, floor), kConfStmt);
    auto [rnation, rfloor] = conf3.Repeat(g);
    mix.emplace_back(Conf3(rnation, rfloor), kConfStmt);
    for (int i = 0; i < 2; ++i) {
      auto [lo, floor] = aconf.Fresh(g, kCustomers - kAconfWidth, 1000, 30000);
      mix.emplace_back(Aconf(lo, floor, kAconf), kAconfStmt);
    }
    auto [alo, afloor] = aconf.Repeat(g);
    mix.emplace_back(Aconf(alo, afloor, kAconf), kAconfStmt);
    auto [elo, efloor] = esum.Fresh(g, kCustomers - kEsumWidth, 1000, 30000);
    mix.emplace_back(Esum(elo, efloor), kEsumStmt);
    auto [rlo, rfloor2] = esum.Repeat(g);
    mix.emplace_back(Esum(rlo, rfloor2), kEsumStmt);
    std::map<std::string, std::string> lookup_key;  // statement -> key
    for (int i = 0; i < 4; ++i) {
      const bool order = i < 3;
      const int key = static_cast<int>(g.Below(order ? kOrders : kCustomers));
      const std::string sql = order ? LookupOrder(key) : LookupCustomer(key);
      lookup_key[sql] = std::to_string(key);
      mix.emplace_back(sql, kLookupStmt);
    }
    g.Shuffle(&mix);
    for (const auto& [sql, flags] : mix) {
      Rows rows = stmt(sql, flags, rec);
      if (flags & kLookupStmt) {
        const bool order = sql.find("from orders") != std::string::npos;
        run.Check("tconf_repair_key",
                  CheckRepairKey(AltsOf(rows, order ? "ok" : "ck", "alt", "p"),
                                 order ? data.orders_w : data.customer_w,
                                 {lookup_key[sql]}, kTol));
      } else if ((flags & kEsumStmt) == 0) {
        check_probs(rows, "p");
      }
    }
  };

  // An ingest pass (ingest_rows_per_s): the lineitem rows loaded again, in
  // 500-row INSERTs, into a certain scratch table indexed on ok (so every
  // INSERT also appends to a B+ tree), which is then dropped. It mints no
  // world variables, so the lineage caches stay valid.
  const std::vector<std::string> li_inserts =
      BatchInserts("li_stage", data.lineitem, kInsertBatch);
  Recorder ingest;
  auto ingest_pass = [&] {
    run.Must(s, "create table li_stage (ok int, ln int, qty int, disc double, "
                "p double)");
    run.Must(s, "create index li_stage_ok on li_stage (ok)");
    for (const std::string& sql : li_inserts) run.Stmt(s, sql, kInsertStmt, &ingest);
    auto stage = db.catalog().GetTable("li_stage");
    run.Check("ingest_row_count",
              CheckCount(stage.ok() ? (*stage)->NumRows() : 0, data.lineitem.size()));
    run.Must(s, "drop table li_stage");
  };

  round(nullptr);  // warm-up: caches, pool threads; nothing timed
  const Snap before = TakeSnap(db.session_manager());
  const ChunkStats chunks_before = TakeChunkStats(db.catalog());
  Recorder rec;
  PersistTimes persist_times;
  const int rounds = RoundsFor(opt.seconds, kRoundsPerSecond);
  for (int i = 0; i < rounds; ++i) {
    round(&rec);
    if (SampleAfter(i, rounds, kIngestPasses)) ingest_pass();
    if (SampleAfter(i, rounds, kPersistSamples)) {
      persist_times.Sample(db, opt.tmp_dir + "/tpch_conf.sample.db", db_options);
    }
  }
  const Snap after = TakeSnap(db.session_manager());
  const ChunkStats chunks_after = TakeChunkStats(db.catalog());
  rec.attempted += ingest.attempted;
  rec.failed += ingest.failed;

  // --- verification (untimed).
  for (size_t i = 0; i < conf2.order.size() && i < 4; ++i) {
    auto [seg, price] = conf2.order[i];
    const Rows lower = first_results[Conf2(seg, price)];
    const Rows higher = FromResult(run.Must(s, Conf2(seg, price + 10000)));
    run.Check("conf_monotone_in_threshold",
              CheckMonotone(GroupsOf(lower, "nation", "p"),
                            GroupsOf(higher, "nation", "p"), kTol));
  }
  {
    std::map<std::string, double> exact, approx;
    for (size_t i = 0; i < aconf.order.size() && i < 6; ++i) {
      const auto [lo, floor] = aconf.order[i];
      const Rows a = first_results[Aconf(lo, floor, kAconf)];
      const Rows e = FromResult(run.Must(s, Aconf(lo, floor, "conf()")));
      const std::string tag = std::to_string(i) + "/";
      for (auto& [k, v] : GroupsOf(a, "nation", "p")) approx[tag + k] = v;
      for (auto& [k, v] : GroupsOf(e, "nation", "p")) exact[tag + k] = v;
    }
    run.Check("aconf_within_eps", CheckAconf(exact, approx, kAconfEps, kAconfDelta));
  }
  for (size_t i = 0; i < esum.order.size() && i < 4; ++i) {
    const auto [lo, floor] = esum.order[i];
    const Rows got = first_results[Esum(lo, floor)];
    const Rows tc = FromResult(run.Must(s, EsumRows(lo, floor)));
    std::vector<Weighted> by_price, by_one;
    for (size_t r = 0; r < tc.size(); ++r) {
      by_price.push_back({tc.text[r][0], tc.num[r][1], tc.num[r][2]});
      by_one.push_back({tc.text[r][0], 1.0, tc.num[r][2]});
    }
    run.Check("esum_linearity",
              CheckExpectation(GroupsOf(got, "status", "s"), by_price, kTol));
    run.Check("ecount_linearity",
              CheckExpectation(GroupsOf(got, "status", "n"), by_one, kTol));
  }
  std::vector<std::string> probes = {
      Conf2(conf2.order[0].first, conf2.order[0].second),
      Conf3(conf3.order[0].first, conf3.order[0].second)};
  for (int i = 0; i < 8; ++i) {
    probes.push_back(LookupOrder(static_cast<int>(g.Below(kOrders))));
  }
  const std::vector<std::string> fingerprints = CheckIndexOnOff(run, s, probes);
  const uint64_t live_rows = LiveRows(db);
  const PersistStats persist =
      RoundTrip(run, db, opt.tmp_dir + "/tpch_conf.db", db_options, probes, fingerprints,
                {{"customer", data.customer.size()},
                 {"orders", data.orders.size()},
                 {"lineitem", data.lineitem.size()}});

  run.CommonEndToEnd(rec, setup_s, persist_times, persist);
  run.Metric("ingest_rows_per_s", ingest.IngestRowsPerS(), "rows/s");
  if (opt.trace) {
    const ReplayStats replay = Replay(db.session_manager(), rec.texts, db_options.exec);
    CommonPerLayer(&run, rec, before, after, chunks_before, chunks_after, replay,
                   persist, live_rows);
    run.Metric("storage.insert_ms_p50", Quantile(ingest.Ms(kInsertStmt), 0.5), "ms");
  }
  return run.Finish(rec);
}

}  // namespace e2e
