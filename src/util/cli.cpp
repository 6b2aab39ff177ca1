#include "util/cli.hpp"

#include <cstdlib>

#include "obs/obs.hpp"
#include "util/common.hpp"
#include "util/isa.hpp"
#include "util/thread_pool.hpp"

namespace turb {

CliArgs::CliArgs(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      options_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[arg] = argv[++i];
    } else {
      options_[arg] = "true";  // bare flag
    }
  }
}

bool CliArgs::has(const std::string& key) const {
  return options_.count(key) > 0;
}

std::string CliArgs::get(const std::string& key,
                         const std::string& fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? fallback : it->second;
}

long CliArgs::get_int(const std::string& key, long fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  TURB_CHECK_MSG(end != it->second.c_str(), "not an integer: --" << key);
  return v;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  TURB_CHECK_MSG(end != it->second.c_str(), "not a number: --" << key);
  return v;
}

namespace {

ServeRuntimeOptions g_serve_options;

}  // namespace

const ServeRuntimeOptions& serve_runtime_options() { return g_serve_options; }

void apply_runtime_flags(const CliArgs& args) {
  if (args.has("threads")) {
    const long threads = args.get_int("threads", 0);
    TURB_CHECK_MSG(threads >= 1, "--threads must be >= 1, got " << threads);
    set_global_threads(static_cast<std::size_t>(threads));
  }
  if (args.has("isa")) {
    util::set_active_isa(util::parse_isa(args.get("isa", "auto")));
  }
  const std::string metrics = args.get("metrics-out", "");
  if (!metrics.empty()) obs::dump_json_at_exit(metrics);

  const auto serve_knob = [&args](const char* key, long* slot) {
    if (!args.has(key)) return;
    const long v = args.get_int(key, 0);
    TURB_CHECK_MSG(v >= 1, "--" << key << " must be >= 1, got " << v);
    *slot = v;
  };
  serve_knob("serve-max-sessions", &g_serve_options.max_sessions);
  serve_knob("serve-queue-cap", &g_serve_options.queue_capacity);
  serve_knob("serve-batch-window", &g_serve_options.batch_window);
  serve_knob("serve-ensemble-k", &g_serve_options.ensemble_k);
}

bool CliArgs::get_flag(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes" ||
         it->second == "on";
}

}  // namespace turb
