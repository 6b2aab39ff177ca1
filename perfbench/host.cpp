#include "host.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

CpuTicks read_cpu_ticks() {
  // First line: "cpu user nice system idle iowait irq softirq steal ...".
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTicks ticks;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return ticks;
  std::istringstream fields(line.substr(4));
  std::uint64_t value = 0;
  for (int i = 0; i < 8 && (fields >> value); ++i) {
    ticks.total += value;
    if (i == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_fraction(const CpuTicks& a, const CpuTicks& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec) +
                  1e-6 * static_cast<double>(ru.ru_utime.tv_usec) +
                  static_cast<double>(ru.ru_stime.tv_sec) +
                  1e-6 * static_cast<double>(ru.ru_stime.tv_usec);
  u.voluntary_switches = ru.ru_nvcsw;
  u.involuntary_switches = ru.ru_nivcsw;
  return u;
}

bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream out("/proc/self/clear_refs");
  out << "5";  // 5: reset the peak resident set size
  out.flush();
  return static_cast<bool>(out);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB → MiB
    }
  }
  return 0.0;
}

int online_cpus() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

}  // namespace perfbench
