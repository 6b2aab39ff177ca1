// Binary (de)serialisation of model parameters.
//
// Format "TNN2" (the only write format): little-endian; magic, then per
// parameter: name length + bytes, rank, extents, float32 payload; then scalar
// metadata; then a CRC-32 of everything between the magic and the checksum.
// Writes go through a tmp-file + rename (util::AtomicFileWriter), so a crash
// mid-save never leaves a plausible-looking truncated checkpoint at the final
// path.
//
// Loading accepts TNN2 and the legacy "TNN1" (TNN2 layout, no CRC); any other
// magic is rejected as corrupt. Every header field is bounds-validated
// against the bytes actually present before any allocation, duplicate
// parameter entries are rejected, and the model is only written after the
// whole file — including the CRC — has been verified (strong exception
// guarantee). Parameters are matched by name and shape-checked, so a
// checkpoint survives refactors that reorder layers but not ones that rename
// or resize them. Rejected-as-corrupt loads increment the
// `robust/corrupt_rejected` counter.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "nn/parameter.hpp"

namespace turb::nn {

/// Optional scalar metadata stored alongside the weights (normaliser
/// statistics, snapshot cadence, config hashes, …).
using Metadata = std::map<std::string, double>;

/// Save parameters (and metadata) to `path`. Throws CheckError on failure.
void save_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     const Metadata& metadata = {});

/// Load into existing parameters (matched by name, shape-checked). When
/// `metadata` is non-null it receives the stored key/value pairs.
void load_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     Metadata* metadata = nullptr);

}  // namespace turb::nn
