#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/common.hpp"

namespace turb::nn {

namespace {

constexpr char kMagicV1[4] = {'T', 'N', 'N', '1'};
constexpr char kMagicV2[4] = {'T', 'N', 'N', '2'};

// Hard caps on header fields. Every one of these is far above anything a
// real checkpoint holds, but small enough that a corrupt header can never
// drive a multi-gigabyte allocation or an index_t overflow.
constexpr std::uint32_t kMaxParams = 1u << 20;
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint32_t kMaxRank = 8;
constexpr std::int64_t kMaxElems = std::int64_t{1} << 40;

/// A corrupt (as opposed to merely mismatched) file: count it, then throw.
[[noreturn]] void reject(const std::string& path, const std::string& what) {
  obs::counter("robust/corrupt_rejected").add();
  throw CheckError("corrupt checkpoint " + path + ": " + what);
}

/// Bounds-checked section reader: every read is validated against the bytes
/// actually present in the file *before* it happens, so no header field can
/// demand more than the file holds; v2 reads also feed the running CRC.
class CheckedReader {
 public:
  CheckedReader(std::ifstream& is, const std::string& path,
                std::uint64_t body_bytes, util::Crc32* crc)
      : is_(&is), path_(&path), remaining_(body_bytes), crc_(crc) {}

  void read(void* dst, std::uint64_t n, const char* what) {
    if (n > remaining_) {
      reject(*path_, std::string("truncated (") + what + ")");
    }
    is_->read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
    if (!is_->good()) reject(*path_, std::string("truncated (") + what + ")");
    if (crc_ != nullptr) crc_->update(dst, n);
    remaining_ -= n;
  }

  template <typename T>
  T read_pod(const char* what) {
    T v{};
    read(&v, sizeof(T), what);
    return v;
  }

  std::string read_string(std::uint32_t len, const char* what) {
    std::string s(len, '\0');
    read(s.data(), len, what);
    return s;
  }

  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

 private:
  std::ifstream* is_;
  const std::string* path_;
  std::uint64_t remaining_;
  util::Crc32* crc_;
};

}  // namespace

void save_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     const Metadata& metadata) {
  util::AtomicFileWriter out(path);
  util::Crc32 crc;
  // CRC covers everything between the magic and the trailing checksum.
  const auto put = [&out, &crc](const void* p, std::size_t n) {
    out.write(p, n);
    crc.update(p, n);
  };
  const auto put_pod = [&put](auto v) { put(&v, sizeof(v)); };

  out.write(kMagicV2, 4);
  put_pod(static_cast<std::uint32_t>(params.size()));
  for (const Parameter* p : params) {
    TURB_CHECK(p != nullptr);
    put_pod(static_cast<std::uint32_t>(p->name.size()));
    put(p->name.data(), p->name.size());
    put_pod(static_cast<std::uint32_t>(p->value.rank()));
    for (const index_t d : p->value.shape()) {
      put_pod(static_cast<std::int64_t>(d));
    }
    put(p->value.data(), static_cast<std::size_t>(p->value.size()) *
                             sizeof(float));
  }
  put_pod(static_cast<std::uint32_t>(metadata.size()));
  for (const auto& [key, value] : metadata) {
    put_pod(static_cast<std::uint32_t>(key.size()));
    put(key.data(), key.size());
    put_pod(value);
  }
  const std::uint32_t checksum = crc.value();
  out.write(&checksum, sizeof(checksum));
  out.commit();
  obs::counter("robust/checkpoint_writes").add();
}

void load_parameters(const std::string& path,
                     const std::vector<Parameter*>& params,
                     Metadata* metadata) {
  std::ifstream is(path, std::ios::binary);
  TURB_CHECK_MSG(is.good(), "cannot open " << path);
  is.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(is.tellg());
  is.seekg(0, std::ios::beg);
  if (file_size < 8) reject(path, "file shorter than any valid checkpoint");

  char magic[4];
  is.read(magic, 4);
  const bool v2 = is.good() && std::equal(magic, magic + 4, kMagicV2);
  const bool v1 = is.good() && std::equal(magic, magic + 4, kMagicV1);
  if (!v1 && !v2) reject(path, "not a TNN1/TNN2 parameter file");

  util::Crc32 crc;
  CheckedReader r(is, path, file_size - 4 - (v2 ? 4 : 0),
                  v2 ? &crc : nullptr);

  std::map<std::string, Parameter*> by_name;
  for (Parameter* p : params) {
    TURB_CHECK(p != nullptr);
    TURB_CHECK_MSG(by_name.emplace(p->name, p).second,
                   "duplicate parameter name " << p->name);
  }

  const auto count = r.read_pod<std::uint32_t>("parameter count");
  if (count > kMaxParams) reject(path, "implausible parameter count");

  // Payloads are staged and only copied into the model after the whole file
  // — including the CRC — has been validated: a failed load never leaves the
  // model partially overwritten.
  std::vector<std::pair<Parameter*, TensorF>> staged;
  staged.reserve(count);
  std::set<std::string> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto name_len = r.read_pod<std::uint32_t>("parameter name length");
    if (name_len > kMaxNameLen) reject(path, "implausible name length");
    const std::string name = r.read_string(name_len, "parameter name");
    const auto rank = r.read_pod<std::uint32_t>("parameter rank");
    if (rank > kMaxRank) reject(path, "implausible rank for " + name);
    Shape shape(rank);
    std::int64_t elems = 1;
    for (auto& d : shape) {
      d = r.read_pod<std::int64_t>("parameter extent");
      if (d < 0 || d > kMaxElems || (d > 0 && elems > kMaxElems / d)) {
        reject(path, "implausible extents for " + name);
      }
      elems *= d;
    }
    const std::uint64_t payload =
        static_cast<std::uint64_t>(elems) * sizeof(float);
    if (payload > r.remaining()) {
      reject(path, "truncated payload for " + name);
    }

    // A duplicate entry used to increment the matched count twice, letting a
    // checkpoint with one parameter doubled and another missing pass the
    // completeness check below with the missing one left uninitialized.
    if (!seen.insert(name).second) {
      reject(path, "duplicate parameter entry " + name);
    }
    const auto it = by_name.find(name);
    TURB_CHECK_MSG(it != by_name.end(),
                   "checkpoint parameter " << name << " not found in model");
    Parameter& p = *it->second;
    TURB_CHECK_MSG(p.value.shape() == shape,
                   "shape mismatch for " << name << ": model "
                                         << shape_to_string(p.value.shape())
                                         << " vs file "
                                         << shape_to_string(shape));
    TensorF value(shape);
    r.read(value.data(), payload, ("payload for " + name).c_str());
    staged.emplace_back(&p, std::move(value));
  }
  TURB_CHECK_MSG(seen.size() == params.size(),
                 "checkpoint holds " << seen.size() << " of " << params.size()
                                     << " model parameters");

  // The metadata section is parsed unconditionally so truncation there and
  // the v2 CRC are always verified, even when the caller discards it.
  Metadata parsed_meta;
  const auto meta_count = r.read_pod<std::uint32_t>("metadata count");
  if (meta_count > kMaxParams) reject(path, "implausible metadata count");
  for (std::uint32_t i = 0; i < meta_count; ++i) {
    const auto key_len = r.read_pod<std::uint32_t>("metadata key length");
    if (key_len > kMaxNameLen) reject(path, "implausible metadata key");
    std::string key = r.read_string(key_len, "metadata key");
    parsed_meta[std::move(key)] = r.read_pod<double>("metadata value");
  }
  if (r.remaining() != 0) reject(path, "trailing bytes after metadata");
  if (v2) {
    std::uint32_t stored = 0;
    is.read(reinterpret_cast<char*>(&stored), sizeof(stored));
    if (!is.good()) reject(path, "truncated (checksum)");
    if (stored != crc.value()) reject(path, "CRC mismatch");
  }

  for (auto& [p, value] : staged) p->value = std::move(value);
  if (metadata != nullptr) *metadata = std::move(parsed_meta);
}

}  // namespace turb::nn
