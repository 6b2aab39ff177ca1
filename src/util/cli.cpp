#include "util/cli.hpp"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>

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

namespace {

/// The whole of `value` as a T, or a CheckError naming the flag: from_chars
/// takes no whitespace, `+` or trailing junk, and reports an out-of-range
/// value instead of clamping it.
template <typename T>
T parse_whole(const std::string& key, const std::string& value,
              const char* kind) {
  T v{};
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, v);
  TURB_CHECK_MSG(ec == std::errc() && ptr == last,
                 "--" << key << " must be " << kind << ", got '" << value
                      << "'");
  return v;
}

}  // namespace

long CliArgs::get_int(const std::string& key, long fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_whole<long>(key, it->second, "an integer");
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_whole<double>(key, it->second, "a number");
}

namespace {

ServeRuntimeOptions g_serve_options;
std::terminate_handler g_default_terminate = nullptr;

/// An exception no frame caught ends the driver with "error: <reason>" on
/// stderr and status 2, not std::terminate's abort (SIGABRT, a core dump).
/// Output already printed is flushed; no destructor or atexit hook runs, as
/// the exception may have left another thread mid-call. Anything else
/// (terminate without an exception, a non-std exception) keeps the default.
[[noreturn]] void exit_on_uncaught() {
  if (const std::exception_ptr e = std::current_exception()) {
    try {
      std::rethrow_exception(e);
    } catch (const std::exception& err) {
      std::fflush(nullptr);
      std::fprintf(stderr, "error: %s\n", err.what());
      std::_Exit(2);
    } catch (...) {
    }
  }
  if (g_default_terminate != nullptr) g_default_terminate();
  std::abort();
}

}  // namespace

const ServeRuntimeOptions& serve_runtime_options() { return g_serve_options; }

void apply_runtime_flags(const CliArgs& args) {
  if (std::get_terminate() != exit_on_uncaught) {
    g_default_terminate = std::set_terminate(exit_on_uncaught);
  }
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
