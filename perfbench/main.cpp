// Benchmark worker: runs one process's share of a workload and prints its
// result record as one JSON line on stdout. run.py builds this binary,
// starts the workers of a run at once, each pinned to its own vCPU (--cpu),
// and pools their records.
//
//   perfbench --workload hybrid_tc|serve_open --seed N
//             --seconds S --trace 0|1 --cpu C [--proc I --procs P]
//             [--tiny] [--inject-divergence] [--trace-out FILE]
#include <sched.h>

#include <cstdio>
#include <exception>
#include <string>

#include "host.hpp"
#include "obs/obs.hpp"
#include "trace.hpp"
#include "util/cli.hpp"
#include "util/isa.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const turb::CliArgs args(argc, argv);
  Options o;
  o.workload = args.get("workload", "");
  o.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  o.seconds = args.get_double("seconds", 10.0);
  o.trace = args.get_int("trace", 0) != 0;
  o.proc = static_cast<int>(args.get_int("proc", 0));
  o.procs = static_cast<int>(args.get_int("procs", 1));
  o.tiny = args.get_flag("tiny");
  o.inject_divergence = args.get_flag("inject-divergence");
  o.trace_out = args.get("trace-out", "");
  const long cpu = args.get_int("cpu", -1);

  const int threads = workload_threads(o.workload);
  if (threads == 0 || o.procs < 1 || o.proc < 0 || o.proc >= o.procs ||
      o.seconds < 0.0 || cpu < 0 || cpu >= CPU_SETSIZE) {
    std::fprintf(stderr, "perfbench: bad arguments (workload '%s')\n",
                 o.workload.c_str());
    return 2;
  }
  // Concurrent workers each keep to their own vCPU.
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu), &set);
  if (sched_setaffinity(0, sizeof(set), &set) != 0) {
    std::fprintf(stderr, "perfbench: cannot pin to cpu %ld\n", cpu);
    return 2;
  }
  try {
    // The width is pinned before anything touches the global pool.
    turb::set_global_threads(static_cast<std::size_t>(threads));
    // End-to-end figures are measured with tracing off; the traced run
    // switches it on around its traced phase only.
    turb::obs::set_enabled(false);

    Report report;
    report.text["isa"] = turb::util::isa_name(turb::util::active_isa());
    report.text["march"] = "native";  // as CMakeLists.txt builds
    report.values["host.nproc"] = online_cpus();
    report.values["threads"] = threads;
    run_workload(o, report);
    if (o.trace && !o.trace_out.empty() &&
        !Tracer::get().write(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   o.trace_out.c_str());
    }
    std::string line = report.to_json();
    for (char& c : line) {
      if (c == '\n') c = ' ';
    }
    std::printf("%s\n", line.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
