// Entry point of the end-to-end benchmark:
//
//   e2ebench --workload <tpch_conf|ingest_refresh|server_sessions>
//            --seed <n> --seconds <s> --trace <0|1> --tmp-dir <dir>
//
// Prints a check summary line and, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "e2ebench/src/workloads.h"

int main(int argc, char** argv) {
  e2e::MarkProcessStart();
  e2e::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atoi(value);
    } else if (flag == "--trace") {
      opt.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--tmp-dir") {
      opt.tmp_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (opt.tmp_dir.empty() || opt.seconds < 1) {
    std::fprintf(stderr, "usage: %s --workload <name> --seed <n> --seconds <s> "
                         "--trace <0|1> --tmp-dir <dir>\n", argv[0]);
    return 2;
  }
  std::filesystem::create_directories(opt.tmp_dir);
  e2e::Run run(opt);
  if (opt.workload == "tpch_conf") return e2e::RunTpchConf(run);
  if (opt.workload == "ingest_refresh") return e2e::RunIngestRefresh(run);
  if (opt.workload == "server_sessions") return e2e::RunServerSessions(run);
  std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
  return 2;
}
