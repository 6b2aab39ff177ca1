// Minimal command-line argument parser for examples and benches.
//
// Supports `--key value`, `--key=value`, and boolean flags `--key`.
#pragma once

#include <map>
#include <string>
#include <vector>

namespace turb {

/// Parsed command-line options with typed, defaulted lookups.
class CliArgs {
 public:
  CliArgs(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  /// The value must parse whole and in range (`2x`, ` 2`, `1e999` throw a
  /// CheckError naming the flag).
  [[nodiscard]] long get_int(const std::string& key, long fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_flag(const std::string& key,
                              bool fallback = false) const;

  /// Positional (non `--`) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Serving-layer knobs shared by every driver that builds a
/// serve::RolloutServer (ServeConfig::from_runtime() reads the first three).
struct ServeRuntimeOptions {
  long max_sessions = 256;     ///< --serve-max-sessions
  long queue_capacity = 1024;  ///< --serve-queue-cap
  long batch_window = 16;      ///< --serve-batch-window
  /// --serve-ensemble-k: RolloutRequest::ensemble_k a driver should request
  /// (1 = plain rollouts, K >= 2 = ensemble UQ fan-out with mean + spread).
  long ensemble_k = 1;
};

/// Process-wide snapshot of the --serve-* flags (defaults until
/// apply_runtime_flags sees them).
[[nodiscard]] const ServeRuntimeOptions& serve_runtime_options();

/// Apply the process-wide flags every driver (examples, benches) shares,
/// first making an uncaught exception (a rejected flag, TURBFNO_THREADS, any
/// failed TURB_CHECK on user input) exit with status 2 and
/// "error: <reason>" on stderr instead of aborting:
///   --threads N             size the global thread pool (must precede the
///                           first parallel region; errors otherwise)
///   --isa auto|scalar|avx2  force the microkernel ISA (overrides the
///                           TURBFNO_ISA env; avx2 errors when unsupported)
///   --metrics-out F         dump the obs metrics registry to F as JSON when
///                           the process exits normally
///   --serve-max-sessions N  serving: concurrently active session bound
///   --serve-queue-cap N     serving: pending-queue admission bound
///   --serve-batch-window N  serving: max streams per micro-batched forward
///   --serve-ensemble-k K    serving: ensemble members per logical session
///                           (1 = plain rollouts)
void apply_runtime_flags(const CliArgs& args);

}  // namespace turb
