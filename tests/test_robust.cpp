// Robustness layer: the fault-injection corruption matrix for the TNN/TDS
// serializers (truncation at every byte, single bit-flips, duplicate /
// missing parameters, kill-mid-write simulation, v1 backward compatibility),
// the guarded hybrid rollout (forced-divergent propagator → PDE fallback),
// and trainer fault handling (non-finite loss → restore + LR backoff,
// checkpoint/resume).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/hybrid.hpp"
#include "core/metrics.hpp"
#include "core/pde_propagator.hpp"
#include "core/rollout_api.hpp"
#include "data/generator.hpp"
#include "fno/fno.hpp"
#include "fno/trainer.hpp"
#include "lbm/initializer.hpp"
#include "nn/dataloader.hpp"
#include "nn/linear.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/checksum.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace turb {
namespace {

// --- byte-level helpers --------------------------------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

bool file_exists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

template <typename T>
void append_pod(std::string& bytes, T v) {
  bytes.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + name;
}

/// Hand-rolled legacy TNN1 writer (the pre-CRC format) for backward-compat
/// and corruption-matrix tests. Entries are (name, shape, payload) triples.
struct V1Entry {
  std::string name;
  std::vector<std::int64_t> dims;
  std::vector<float> payload;
};

std::string make_tnn1(const std::vector<V1Entry>& entries) {
  std::string bytes = "TNN1";
  append_pod<std::uint32_t>(bytes, static_cast<std::uint32_t>(entries.size()));
  for (const V1Entry& e : entries) {
    append_pod<std::uint32_t>(bytes, static_cast<std::uint32_t>(e.name.size()));
    bytes += e.name;
    append_pod<std::uint32_t>(bytes, static_cast<std::uint32_t>(e.dims.size()));
    for (const std::int64_t d : e.dims) append_pod(bytes, d);
    bytes.append(reinterpret_cast<const char*>(e.payload.data()),
                 e.payload.size() * sizeof(float));
  }
  append_pod<std::uint32_t>(bytes, 0);  // empty metadata
  return bytes;
}

V1Entry entry_from(const nn::Parameter& p) {
  V1Entry e;
  e.name = p.name;
  e.dims.assign(p.value.shape().begin(), p.value.shape().end());
  e.payload.assign(p.value.data(), p.value.data() + p.value.size());
  return e;
}

// --- TNN checkpoint corruption matrix ------------------------------------

TEST(RobustSerialize, V2RoundTripAndMagic) {
  Rng rng(1);
  nn::Linear a(3, 4, rng), b(3, 4, rng);
  const std::string path = temp_path("robust_v2.tnn");
  const nn::Metadata meta{{"dt_tc", 0.01}, {"norm_mean", -1.5}};
  nn::save_parameters(path, a.parameters(), meta);

  const std::string bytes = read_bytes(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "TNN2");

  nn::Metadata loaded;
  nn::load_parameters(path, b.parameters(), &loaded);
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
  EXPECT_DOUBLE_EQ(loaded.at("dt_tc"), 0.01);
  EXPECT_DOUBLE_EQ(loaded.at("norm_mean"), -1.5);
  std::remove(path.c_str());
}

TEST(RobustSerialize, RetiredV3CheckpointRejected) {
  // TNN3 (a dtype byte before each payload) is not a checkpoint format: even
  // an fp32-tagged TNN3 image with a valid CRC takes the unknown-magic
  // rejection. Build one from a TNN2 file: set the magic, splice a zero
  // dtype byte after each parameter's extents, re-stamp the CRC.
  Rng rng(54);
  nn::Linear a(3, 4, rng), b(3, 4, rng);
  const std::string path = temp_path("robust_v3_retired.tnn");
  nn::save_parameters(path, a.parameters(), {{"dt_tc", 0.01}});
  const std::string v2 = read_bytes(path);
  std::string v3 = "TNN3" + v2.substr(4, 4);  // magic, parameter count
  std::size_t pos = 8;
  for (const nn::Parameter* p : a.parameters()) {
    // name length + name + rank + int64 extents, then the fp32 payload.
    const std::size_t header = 4 + p->name.size() + 4 + 8 * p->value.rank();
    const auto payload =
        static_cast<std::size_t>(p->value.size()) * sizeof(float);
    v3 += v2.substr(pos, header);
    v3 += '\0';  // dtype tag 0 = fp32
    v3 += v2.substr(pos + header, payload);
    pos += header + payload;
  }
  v3 += v2.substr(pos, v2.size() - 4 - pos);  // metadata, minus the old CRC
  const std::uint32_t crc = util::crc32(v3.data() + 4, v3.size() - 4);
  v3.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  ASSERT_EQ(v3.size(), v2.size() + a.parameters().size());
  write_bytes(path, v3);

  std::vector<TensorF> before;
  for (const nn::Parameter* p : b.parameters()) before.push_back(p->value);
  const std::int64_t rejected =
      obs::counter("robust/corrupt_rejected").value();
  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  EXPECT_EQ(obs::counter("robust/corrupt_rejected").value(), rejected + 1);
  const std::vector<nn::Parameter*> after = b.parameters();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t k = 0; k < before.size(); ++k) {
    ASSERT_EQ(0, std::memcmp(before[k].data(), after[k]->value.data(),
                             static_cast<std::size_t>(before[k].size()) *
                                 sizeof(float)))
        << "rejected load mutated " << after[k]->name;
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, SaveLeavesNoTmpFile) {
  Rng rng(2);
  nn::Linear a(2, 2, rng);
  const std::string path = temp_path("robust_notmp.tnn");
  nn::save_parameters(path, a.parameters());
  EXPECT_TRUE(file_exists(path));
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(path)));
  std::remove(path.c_str());
}

TEST(RobustSerialize, EveryTruncationRejected) {
  Rng rng(3);
  nn::Linear a(2, 3, rng), scratch(2, 3, rng);
  const std::string path = temp_path("robust_trunc.tnn");
  nn::save_parameters(path, a.parameters(), {{"k", 1.0}});
  const std::string good = read_bytes(path);

  // Truncation at *every* length — a superset of "every section boundary".
  for (std::size_t len = 0; len < good.size(); ++len) {
    write_bytes(path, good.substr(0, len));
    EXPECT_THROW(nn::load_parameters(path, scratch.parameters()), CheckError)
        << "truncation to " << len << " of " << good.size()
        << " bytes was accepted";
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, EveryBitFlipRejected) {
  Rng rng(4);
  nn::Linear a(2, 3, rng), scratch(2, 3, rng);
  const std::string path = temp_path("robust_flip.tnn");
  nn::save_parameters(path, a.parameters(), {{"k", 2.0}});
  const std::string good = read_bytes(path);

  // Magic flips fail the magic check; everything else — header, payload,
  // metadata, and the checksum itself — is covered by the CRC.
  for (std::size_t byte = 0; byte < good.size(); ++byte) {
    for (const unsigned mask : {0x01u, 0x80u}) {
      std::string bad = good;
      bad[byte] = static_cast<char>(static_cast<unsigned char>(bad[byte]) ^
                                    mask);
      write_bytes(path, bad);
      EXPECT_THROW(nn::load_parameters(path, scratch.parameters()), CheckError)
          << "bit flip (mask 0x" << std::hex << mask << std::dec
          << ") at byte " << byte << " was accepted";
    }
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, FailedLoadLeavesModelUntouched) {
  Rng rng(5);
  nn::Linear a(2, 3, rng), b(2, 3, rng);
  const std::string path = temp_path("robust_strong.tnn");
  nn::save_parameters(path, a.parameters());
  std::string bad = read_bytes(path);
  bad[bad.size() - 1] = static_cast<char>(
      static_cast<unsigned char>(bad[bad.size() - 1]) ^ 0x40u);
  write_bytes(path, bad);

  const std::vector<float> before(
      b.weight().value.data(),
      b.weight().value.data() + b.weight().value.size());
  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  for (index_t i = 0; i < b.weight().value.size(); ++i) {
    ASSERT_EQ(b.weight().value[i], before[static_cast<std::size_t>(i)])
        << "failed load mutated the model";
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, V1BackwardCompatLoads) {
  Rng rng(6);
  nn::Linear a(3, 2, rng), b(3, 2, rng);
  std::vector<V1Entry> entries;
  for (const nn::Parameter* p : a.parameters()) {
    entries.push_back(entry_from(*p));
  }
  const std::string path = temp_path("robust_v1.tnn");
  write_bytes(path, make_tnn1(entries));

  nn::load_parameters(path, b.parameters());
  for (index_t i = 0; i < a.weight().value.size(); ++i) {
    ASSERT_EQ(a.weight().value[i], b.weight().value[i]);
  }
  for (index_t i = 0; i < a.bias().value.size(); ++i) {
    ASSERT_EQ(a.bias().value[i], b.bias().value[i]);
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, DuplicateEntryMaskingMissingParameterRejected) {
  // The original bug: a checkpoint holding one parameter twice and another
  // missing satisfied the old `matched == params.size()` completeness check
  // and silently served the missing parameter from its random init.
  Rng rng(7);
  nn::Linear a(3, 2, rng), b(3, 2, rng);
  const std::vector<nn::Parameter*> params = a.parameters();
  ASSERT_EQ(params.size(), 2u);
  const V1Entry weight = entry_from(*params[0]);
  const std::string path = temp_path("robust_dup.tnn");
  write_bytes(path, make_tnn1({weight, weight}));  // weight twice, no bias

  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  std::remove(path.c_str());
}

TEST(RobustSerialize, MissingParameterRejected) {
  Rng rng(8);
  nn::Linear a(3, 2, rng), b(3, 2, rng);
  const std::vector<nn::Parameter*> params = a.parameters();
  const std::string path = temp_path("robust_missing.tnn");
  write_bytes(path, make_tnn1({entry_from(*params[0])}));
  EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  std::remove(path.c_str());
}

TEST(RobustSerialize, HugeHeaderFieldsRejectedBeforeAllocation) {
  Rng rng(9);
  nn::Linear b(3, 2, rng);
  const std::string path = temp_path("robust_huge.tnn");

  {  // name_len far beyond the file size
    std::string bytes = "TNN1";
    append_pod<std::uint32_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 0x7FFFFFFFu);
    write_bytes(path, bytes);
    EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  }
  {  // implausible rank
    std::string bytes = "TNN1";
    append_pod<std::uint32_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 1);
    bytes += "w";
    append_pod<std::uint32_t>(bytes, 1000000u);
    write_bytes(path, bytes);
    EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  }
  {  // extents whose product overflows / demands a multi-TB payload
    std::string bytes = "TNN1";
    append_pod<std::uint32_t>(bytes, 1);
    append_pod<std::uint32_t>(bytes, 1);
    bytes += "w";
    append_pod<std::uint32_t>(bytes, 2);
    append_pod<std::int64_t>(bytes, std::int64_t{1} << 36);
    append_pod<std::int64_t>(bytes, std::int64_t{1} << 36);
    write_bytes(path, bytes);
    EXPECT_THROW(nn::load_parameters(path, b.parameters()), CheckError);
  }
  std::remove(path.c_str());
}

TEST(RobustSerialize, CorruptRejectionIncrementsCounter) {
  Rng rng(10);
  nn::Linear a(2, 2, rng);
  const std::string path = temp_path("robust_counter.tnn");
  nn::save_parameters(path, a.parameters());
  std::string bad = read_bytes(path);
  bad[bad.size() - 2] = static_cast<char>(
      static_cast<unsigned char>(bad[bad.size() - 2]) ^ 0x10u);
  write_bytes(path, bad);

  const std::int64_t before = obs::counter("robust/corrupt_rejected").value();
  EXPECT_THROW(nn::load_parameters(path, a.parameters()), CheckError);
  EXPECT_GT(obs::counter("robust/corrupt_rejected").value(), before);
  std::remove(path.c_str());
}

TEST(RobustSerialize, AbandonedAtomicWriteLeavesTargetIntact) {
  // Kill-mid-write simulation: an AtomicFileWriter that never commits (the
  // process "died") must leave the previous checkpoint byte-identical and
  // no tmp file behind.
  Rng rng(11);
  nn::Linear a(2, 2, rng), b(2, 2, rng);
  const std::string path = temp_path("robust_crash.tnn");
  nn::save_parameters(path, a.parameters());
  const std::string good = read_bytes(path);

  {
    util::AtomicFileWriter w(path);
    const char garbage[] = "partial garbage from a dying process";
    w.write(garbage, sizeof(garbage));
    // no commit() — the destructor is the crash cleanup path
  }
  EXPECT_EQ(read_bytes(path), good);
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(path)));
  nn::load_parameters(path, b.parameters());  // still loads
  std::remove(path.c_str());
}

TEST(RobustSerialize, StaleTmpFromCrashIsIgnoredAndOverwritten) {
  // A hard kill can still leave a stale tmp (no destructor ran). Loaders
  // never open it, and the next save simply replaces it.
  Rng rng(12);
  nn::Linear a(2, 2, rng), b(2, 2, rng);
  const std::string path = temp_path("robust_stale.tnn");
  nn::save_parameters(path, a.parameters());
  write_bytes(util::AtomicFileWriter::tmp_path_for(path), "torn half-write");

  nn::load_parameters(path, b.parameters());  // final path unaffected
  nn::save_parameters(path, a.parameters());  // replaces the stale tmp
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(path)));
  std::remove(path.c_str());
}

TEST(RobustSerialize, SaveLoadSaveByteIdenticalAcrossThreadWidths) {
  const std::string path_a = temp_path("robust_rt_a.tnn");
  const std::string path_b = temp_path("robust_rt_b.tnn");
  std::string first;
  for (const std::size_t width : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool::Scope scope(width);
    Rng rng(13);
    nn::Linear a(4, 5, rng), b(4, 5, rng);
    nn::save_parameters(path_a, a.parameters(), {{"dt_tc", 0.25}});
    nn::Metadata meta;
    nn::load_parameters(path_a, b.parameters(), &meta);
    nn::save_parameters(path_b, b.parameters(), meta);
    const std::string bytes_a = read_bytes(path_a);
    EXPECT_EQ(bytes_a, read_bytes(path_b)) << "width " << width;
    if (first.empty()) {
      first = bytes_a;
    } else {
      EXPECT_EQ(first, bytes_a) << "bytes differ across pool widths";
    }
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

// --- TDS dataset corruption matrix ---------------------------------------

data::GeneratorConfig tiny_dataset_config() {
  data::GeneratorConfig cfg;
  cfg.grid = 16;
  cfg.u0 = 0.05;
  cfg.reynolds = 200.0;
  cfg.burn_in_tc = 0.05;
  cfg.t_end_tc = 0.15;
  cfg.dt_tc = 0.05;
  cfg.seed = 42;
  return cfg;
}

TEST(RobustDataset, V2RoundTripTruncationAndBitFlips) {
  const data::TurbulenceDataset ds =
      data::generate_ensemble(tiny_dataset_config(), 1);
  const std::string path = temp_path("robust_ds.tds");
  data::save_dataset(path, ds);
  const std::string good = read_bytes(path);
  ASSERT_GE(good.size(), 48u);
  EXPECT_EQ(good.substr(0, 4), "TDS2");

  const data::TurbulenceDataset loaded = data::load_dataset(path);
  ASSERT_EQ(loaded.num_samples(), ds.num_samples());
  for (index_t i = 0; i < ds.samples[0].u1.size(); ++i) {
    ASSERT_EQ(loaded.samples[0].u1[i], ds.samples[0].u1[i]);
  }

  // Truncation at the section boundaries: mid-magic, mid-header, mid-times,
  // mid-payload, mid-CRC.
  for (const std::size_t len :
       {std::size_t{2}, std::size_t{20}, std::size_t{46}, good.size() / 2,
        good.size() - 2}) {
    write_bytes(path, good.substr(0, len));
    EXPECT_THROW(data::load_dataset(path), CheckError)
        << "truncation to " << len << " bytes accepted";
  }
  // Bit flips in the header, payload, and checksum.
  for (const std::size_t byte :
       {std::size_t{5}, std::size_t{13}, std::size_t{60}, good.size() / 2,
        good.size() - 1}) {
    std::string bad = good;
    bad[byte] = static_cast<char>(static_cast<unsigned char>(bad[byte]) ^
                                  0x04u);
    write_bytes(path, bad);
    EXPECT_THROW(data::load_dataset(path), CheckError)
        << "bit flip at byte " << byte << " accepted";
  }
  std::remove(path.c_str());
}

TEST(RobustDataset, V1BackwardCompatLoads) {
  const data::TurbulenceDataset ds =
      data::generate_ensemble(tiny_dataset_config(), 2);
  std::string bytes = "TDS1";
  append_pod(bytes, ds.dt_tc);
  append_pod<std::int64_t>(bytes, ds.num_samples());
  append_pod<std::int64_t>(bytes, ds.samples[0].steps());
  append_pod<std::int64_t>(bytes, ds.samples[0].height());
  append_pod<std::int64_t>(bytes, ds.samples[0].width());
  for (const data::SnapshotSeries& s : ds.samples) {
    for (const double t : s.times) append_pod(bytes, t);
    for (const TensorF* f : {&s.u1, &s.u2, &s.omega}) {
      bytes.append(reinterpret_cast<const char*>(f->data()),
                   static_cast<std::size_t>(f->size()) * sizeof(float));
    }
  }
  const std::string path = temp_path("robust_ds_v1.tds");
  write_bytes(path, bytes);

  const data::TurbulenceDataset loaded = data::load_dataset(path);
  ASSERT_EQ(loaded.num_samples(), 2);
  EXPECT_DOUBLE_EQ(loaded.dt_tc, ds.dt_tc);
  for (index_t i = 0; i < ds.samples[1].omega.size(); ++i) {
    ASSERT_EQ(loaded.samples[1].omega[i], ds.samples[1].omega[i]);
  }
  std::remove(path.c_str());
}

TEST(RobustDataset, HugeHeaderExtentsRejectedBeforeAllocation) {
  const std::string path = temp_path("robust_ds_huge.tds");
  std::string bytes = "TDS1";
  append_pod(bytes, 0.05);
  append_pod<std::int64_t>(bytes, 1);                      // samples
  append_pod<std::int64_t>(bytes, std::int64_t{1} << 29);  // steps
  append_pod<std::int64_t>(bytes, std::int64_t{1} << 29);  // h: product
  append_pod<std::int64_t>(bytes, std::int64_t{1} << 29);  // w: overflows
  write_bytes(path, bytes);
  EXPECT_THROW(data::load_dataset(path), CheckError);

  // A header that merely disagrees with the actual file size.
  std::string small = "TDS1";
  append_pod(small, 0.05);
  append_pod<std::int64_t>(small, 1);
  append_pod<std::int64_t>(small, 4);
  append_pod<std::int64_t>(small, 64);
  append_pod<std::int64_t>(small, 64);
  small += "only a few payload bytes";
  write_bytes(path, small);
  EXPECT_THROW(data::load_dataset(path), CheckError);
  std::remove(path.c_str());
}

// --- guarded hybrid rollouts ---------------------------------------------

constexpr index_t kGrid = 32;
constexpr double kDtSnap = 0.01;

std::unique_ptr<ns::NsSolver> make_solver() {
  ns::NsConfig cfg;
  cfg.n = kGrid;
  cfg.viscosity = 1e-3;
  cfg.dt = 1e-3;
  return std::make_unique<ns::SpectralNsSolver>(cfg);
}

core::History make_seed(index_t n, std::uint64_t rng_seed = 7) {
  Rng rng(rng_seed);
  const auto field = lbm::random_vortex_velocity(kGrid, kGrid, 4.0, 1.0, rng);
  core::History history;
  core::FieldSnapshot snap;
  snap.t = 0.0;
  snap.u1 = field.u1;
  snap.u2 = field.u2;
  history.push_back(std::move(snap));
  if (n > 1) {
    core::PdePropagator pde(make_solver(), kDtSnap);
    for (auto& s : pde.advance(history, n - 1)) {
      history.push_back(std::move(s));
    }
  }
  return history;
}

bool all_finite(const core::RolloutResult& result) {
  for (const core::SnapshotMetrics& m : result.metrics) {
    if (!std::isfinite(m.kinetic_energy) || !std::isfinite(m.enstrophy)) {
      return false;
    }
  }
  for (const core::FieldSnapshot& s : result.trajectory) {
    for (index_t i = 0; i < s.u1.size(); ++i) {
      if (!std::isfinite(s.u1[i]) || !std::isfinite(s.u2[i])) return false;
    }
  }
  return true;
}

TEST(RolloutGuardTest, NanDivergenceTripsAndFallsBackToPde) {
  core::PdePropagator inner(make_solver(), kDtSnap);
  core::DivergentPropagator divergent(inner, /*healthy_snapshots=*/3,
                                      core::DivergentPropagator::Mode::nan);
  core::PdePropagator pde(make_solver(), kDtSnap);

  core::HybridConfig cfg;
  cfg.fno_snapshots = 4;
  cfg.pde_snapshots = 3;
  cfg.guard.enabled = true;
  cfg.guard.cooldown_snapshots = 3;
  core::HybridScheduler scheduler(divergent, pde, cfg);

  const std::int64_t trips_before = obs::counter("robust/guard_trips").value();
  const core::RolloutResult result = scheduler.run(make_seed(1), 16);

  ASSERT_EQ(result.trajectory.size(), 16u);
  EXPECT_TRUE(all_finite(result)) << "guard let a non-finite snapshot through";
  EXPECT_GT(result.guard_trips(), 0);
  EXPECT_GT(obs::counter("robust/guard_trips").value(), trips_before);
  bool saw_fallback = false;
  for (const std::string& producer : result.producer) {
    if (producer == "pde_fallback") saw_fallback = true;
    // Every surrogate window trips (snapshot 4 of the first window is
    // already past the 3 healthy ones), so no "divergent" snapshot may
    // survive into the trajectory.
    EXPECT_NE(producer, "divergent");
  }
  EXPECT_TRUE(saw_fallback);
  for (const core::GuardEvent& event : result.guard_events) {
    EXPECT_EQ(event.reason, core::GuardTrip::non_finite);
  }
}

TEST(RolloutGuardTest, EnergyBandTripsOnBlowup) {
  core::PdePropagator inner(make_solver(), kDtSnap);
  core::DivergentPropagator divergent(
      inner, /*healthy_snapshots=*/2, core::DivergentPropagator::Mode::blowup,
      /*blowup_factor=*/50.0);
  core::PdePropagator pde(make_solver(), kDtSnap);

  const core::SnapshotMetrics seed_metrics =
      core::compute_metrics(make_seed(1).front());
  core::HybridConfig cfg;
  cfg.fno_snapshots = 3;
  cfg.pde_snapshots = 3;
  cfg.guard.enabled = true;
  cfg.guard.energy_max = 10.0 * seed_metrics.kinetic_energy;
  core::HybridScheduler scheduler(divergent, pde, cfg);

  const core::RolloutResult result = scheduler.run(make_seed(1), 12);
  ASSERT_GT(result.guard_trips(), 0);
  EXPECT_EQ(result.guard_events.front().reason, core::GuardTrip::energy_high);
  // Decaying turbulence: the PDE keeps the energy inside the band, and no
  // blown-up surrogate snapshot reaches the trajectory.
  for (const core::SnapshotMetrics& m : result.metrics) {
    EXPECT_LE(m.kinetic_energy, 10.0 * seed_metrics.kinetic_energy);
  }
}

TEST(RolloutGuardTest, EnabledButUntrippedIsBitwiseIdenticalToDisabled) {
  const core::History seed = make_seed(1);

  const auto run_with = [&seed](bool guarded) {
    core::PdePropagator a(make_solver(), kDtSnap);
    core::PdePropagator b(make_solver(), kDtSnap);
    core::HybridConfig cfg;
    cfg.fno_snapshots = 3;
    cfg.pde_snapshots = 2;
    cfg.guard.enabled = guarded;  // infinite default bands: can never trip
    core::HybridScheduler scheduler(a, b, cfg);
    return scheduler.run(seed, 10);
  };
  const core::RolloutResult plain = run_with(false);
  const core::RolloutResult guarded = run_with(true);

  ASSERT_EQ(plain.trajectory.size(), guarded.trajectory.size());
  EXPECT_TRUE(guarded.guard_events.empty());
  for (std::size_t k = 0; k < plain.trajectory.size(); ++k) {
    for (index_t i = 0; i < plain.trajectory[k].u1.size(); ++i) {
      ASSERT_EQ(plain.trajectory[k].u1[i], guarded.trajectory[k].u1[i]);
      ASSERT_EQ(plain.trajectory[k].u2[i], guarded.trajectory[k].u2[i]);
    }
  }
}

TEST(RolloutGuardTest, GuardedPureFnoWithoutCooldownDegradesForGood) {
  // Pure FNO has no scheduled PDE window to fall back for, so cool-down 0
  // means the rest of the run — the rule run_rollout follows too, with the
  // same bytes.
  const auto run = [](bool hybrid) {
    core::PdePropagator inner(make_solver(), kDtSnap);
    core::DivergentPropagator divergent(inner, /*healthy_snapshots=*/4,
                                        core::DivergentPropagator::Mode::nan);
    core::PdePropagator pde(make_solver(), kDtSnap);
    core::GuardConfig guard;
    guard.enabled = true;  // cooldown_snapshots = 0
    if (hybrid) {
      core::HybridConfig cfg;
      cfg.fno_snapshots = 4;
      cfg.pde_snapshots = 0;
      cfg.guard = guard;
      return core::HybridScheduler(divergent, pde, cfg).run(make_seed(1), 12);
    }
    core::RolloutRequest request;
    request.seed = make_seed(1);
    request.steps = 12;
    request.window = 4;
    request.guard = guard;
    return core::run_rollout(divergent, request, &pde);
  };
  const core::RolloutResult hybrid = run(true);
  ASSERT_EQ(hybrid.trajectory.size(), 12u);
  ASSERT_EQ(hybrid.guard_trips(), 1);
  EXPECT_EQ(hybrid.guard_events.front().trajectory_index, 4);
  for (std::size_t s = 0; s < hybrid.producer.size(); ++s) {
    EXPECT_EQ(hybrid.producer[s], s < 4 ? "divergent" : "pde_fallback") << s;
  }
  const core::RolloutResult solo = run(false);
  ASSERT_EQ(solo.producer, hybrid.producer);
  for (std::size_t k = 0; k < solo.trajectory.size(); ++k) {
    for (index_t i = 0; i < solo.trajectory[k].u1.size(); ++i) {
      ASSERT_EQ(solo.trajectory[k].u1[i], hybrid.trajectory[k].u1[i]);
      ASSERT_EQ(solo.trajectory[k].u2[i], hybrid.trajectory[k].u2[i]);
    }
  }
}

// --- guard detection power, through both rollout drivers ------------------

enum class GuardDriver { hybrid, run_rollout };

void PrintTo(GuardDriver driver, std::ostream* os) {
  *os << (driver == GuardDriver::hybrid ? "hybrid" : "run_rollout");
}

/// One guarded rollout whose primary is the PDE with its velocities scaled by
/// `factor` (energy by factor²) from its snapshot `healthy` + 1 on, against an
/// energy band of 10× the seed's kinetic energy. Driven by a 4/4
/// HybridScheduler or by run_rollout in windows of 4.
core::RolloutResult guarded_blowup_run(GuardDriver driver,
                                       std::uint64_t seed_id, index_t healthy,
                                       double factor, index_t steps) {
  const core::History seed = make_seed(1, seed_id);
  core::PdePropagator inner(make_solver(), kDtSnap);
  // Fresh per run: it counts the snapshots it has produced.
  core::DivergentPropagator primary(
      inner, healthy, core::DivergentPropagator::Mode::blowup, factor);
  core::PdePropagator pde(make_solver(), kDtSnap);
  core::GuardConfig guard;
  guard.enabled = true;
  guard.energy_max = 10.0 * core::compute_metrics(seed.front()).kinetic_energy;
  if (driver == GuardDriver::hybrid) {
    core::HybridConfig cfg;
    cfg.fno_snapshots = 4;
    cfg.pde_snapshots = 4;
    cfg.guard = guard;
    return core::HybridScheduler(primary, pde, cfg).run(seed, steps);
  }
  core::RolloutRequest request;
  request.seed = seed;
  request.steps = steps;
  request.window = 4;
  request.guard = guard;
  return core::run_rollout(primary, request, &pde);
}

class GuardDetection : public ::testing::TestWithParam<GuardDriver> {};

TEST_P(GuardDetection, TripsWithinOneWindowOfAFourfoldBlowupOnly) {
  // The primary turns bad at its 9th snapshot, the first of its third
  // window: trajectory index 16 in the 4/4 hybrid, 8 on its own.
  const index_t healthy = 8;
  const index_t bad_window = GetParam() == GuardDriver::hybrid ? 16 : 8;

  const core::RolloutResult strong =
      guarded_blowup_run(GetParam(), 7, healthy, /*factor=*/4.0, 32);
  ASSERT_EQ(strong.trajectory.size(), 32u);
  ASSERT_GE(strong.guard_trips(), 1);
  EXPECT_EQ(strong.guard_events.front().trajectory_index, bad_window);
  EXPECT_EQ(strong.guard_events.front().reason, core::GuardTrip::energy_high);
  EXPECT_EQ(strong.producer[static_cast<std::size_t>(bad_window)],
            "pde_fallback");

  // A ×2 primary compounds: its next window re-seeds from its own last ×2
  // snapshot. The weak run therefore ends with the first bad window, so
  // the guard judges energy ×4 — inside the ×10 band — and must not trip.
  const core::RolloutResult weak = guarded_blowup_run(
      GetParam(), 7, healthy, /*factor=*/2.0, bad_window + 4);
  ASSERT_EQ(weak.trajectory.size(), static_cast<std::size_t>(bad_window + 4));
  EXPECT_EQ(weak.guard_trips(), 0);
  EXPECT_EQ(weak.producer.back(), "divergent");  // the ×4 window was kept
}

TEST_P(GuardDetection, CleanLongRunsNeverTrip) {
  const index_t steps = 120;
  for (const std::uint64_t seed_id : {7u, 11u, 13u}) {
    const core::RolloutResult clean =
        guarded_blowup_run(GetParam(), seed_id, /*healthy=*/steps, 4.0, steps);
    ASSERT_EQ(clean.trajectory.size(), static_cast<std::size_t>(steps));
    EXPECT_EQ(clean.guard_trips(), 0) << "seed " << seed_id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Drivers, GuardDetection,
    ::testing::Values(GuardDriver::hybrid, GuardDriver::run_rollout));

TEST(RunSingle, EmptySeedRejected) {
  core::PdePropagator pde(make_solver(), kDtSnap);
  core::RolloutRequest req;
  req.steps = 4;  // seed left empty
  EXPECT_THROW(core::run_rollout(pde, req), CheckError);
}

TEST(RunSingle, SeedShorterThanMinHistoryRejected) {
  /// A propagator demanding a longer input window than the seed provides —
  /// the FNO propagator shape without the model weights.
  class WindowedStub final : public core::Propagator {
   public:
    std::vector<core::FieldSnapshot> advance(const core::History& history,
                                             index_t count) override {
      std::vector<core::FieldSnapshot> out;
      for (index_t i = 0; i < count; ++i) {
        core::FieldSnapshot snap = history.back();
        snap.t += kDtSnap * static_cast<double>(i + 1);
        out.push_back(std::move(snap));
      }
      return out;
    }
    [[nodiscard]] double dt_snap() const override { return kDtSnap; }
    [[nodiscard]] index_t min_history() const override { return 3; }
    [[nodiscard]] std::string name() const override { return "stub"; }
  };
  WindowedStub stub;
  core::RolloutRequest req;
  req.seed = make_seed(1);
  req.steps = 4;
  EXPECT_THROW(core::run_rollout(stub, req), CheckError);
  req.seed = make_seed(3);
  EXPECT_NO_THROW(core::run_rollout(stub, req));
}

// --- trainer fault handling ----------------------------------------------

fno::FnoConfig tiny_fno_config() {
  fno::FnoConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.width = 8;
  cfg.n_layers = 2;
  cfg.n_modes = {8, 8};
  cfg.lifting_channels = 16;
  cfg.projection_channels = 16;
  return cfg;
}

TensorF random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  TensorF x(std::move(shape));
  x.fill_normal(rng, 0.0, 1.0);
  return x;
}

TEST(RobustTrainer, ExplodingLrAbortsWithFiniteWeights) {
  Rng rng(123);
  fno::Fno model(tiny_fno_config(), rng);
  nn::DataLoader loader(random_tensor({8, 3, 16, 16}, 77),
                        random_tensor({8, 2, 16, 16}, 78), 4, true, 9);
  fno::TrainConfig cfg;
  cfg.epochs = 10;
  cfg.lr = 1e18;  // guaranteed float overflow within one step
  cfg.max_recoveries = 2;
  cfg.verbose = false;

  const std::int64_t restores_before =
      obs::counter("robust/train_restores").value();
  const fno::TrainResult result = fno::train_fno(model, loader, cfg);

  EXPECT_TRUE(result.aborted);
  EXPECT_GE(result.recoveries, 1);
  EXPECT_GT(obs::counter("robust/train_restores").value(), restores_before);
  for (const nn::Parameter* p : model.parameters()) {
    for (index_t i = 0; i < p->value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value[i]))
          << "non-finite weight survived the abort in " << p->name;
    }
  }
  for (const fno::EpochStats& stats : result.history) {
    EXPECT_TRUE(std::isfinite(stats.train_loss))
        << "a non-finite loss was averaged into EpochStats";
  }
}

TEST(RobustTrainer, FiniteTrainingUnaffectedByFaultMachinery) {
  const auto train_with = [](bool guard) {
    Rng rng(123);
    fno::Fno model(tiny_fno_config(), rng);
    nn::DataLoader loader(random_tensor({8, 3, 16, 16}, 71),
                          random_tensor({8, 2, 16, 16}, 72), 4, true, 9);
    fno::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.verbose = false;
    cfg.abort_on_nonfinite = guard;
    const fno::TrainResult result = fno::train_fno(model, loader, cfg);
    std::vector<float> weights;
    for (const nn::Parameter* p : model.parameters()) {
      weights.insert(weights.end(), p->value.data(),
                     p->value.data() + p->value.size());
    }
    return std::make_pair(result.history, weights);
  };
  const auto [hist_on, weights_on] = train_with(true);
  const auto [hist_off, weights_off] = train_with(false);
  ASSERT_EQ(hist_on.size(), hist_off.size());
  for (std::size_t e = 0; e < hist_on.size(); ++e) {
    EXPECT_EQ(hist_on[e].train_loss, hist_off[e].train_loss);
  }
  EXPECT_EQ(weights_on, weights_off);
}

TEST(RobustTrainer, CheckpointResumeContinuesSchedule) {
  const std::string ckpt = temp_path("robust_resume.tnn");
  std::remove(ckpt.c_str());
  const auto make_loader = [] {
    return nn::DataLoader(random_tensor({8, 3, 16, 16}, 31),
                          random_tensor({8, 2, 16, 16}, 32), 4, true, 9);
  };

  Rng rng_a(55);
  fno::Fno model(tiny_fno_config(), rng_a);
  {
    auto loader = make_loader();
    fno::TrainConfig cfg;
    cfg.epochs = 2;
    cfg.verbose = false;
    cfg.checkpoint_path = ckpt;
    const fno::TrainResult first = fno::train_fno(model, loader, cfg);
    EXPECT_GE(first.checkpoints_written, 1);
    EXPECT_TRUE(file_exists(ckpt));
  }
  Rng rng_b(999);  // resumed weights come from the checkpoint, not this init
  fno::Fno resumed(tiny_fno_config(), rng_b);
  {
    auto loader = make_loader();
    fno::TrainConfig cfg;
    cfg.epochs = 4;
    cfg.verbose = false;
    cfg.checkpoint_path = ckpt;
    cfg.resume = true;
    const fno::TrainResult second = fno::train_fno(resumed, loader, cfg);
    EXPECT_EQ(second.start_epoch, 2);
    ASSERT_EQ(second.history.size(), 2u);
    EXPECT_EQ(second.history.front().epoch, 2);
  }
  for (const nn::Parameter* p : resumed.parameters()) {
    for (index_t i = 0; i < p->value.size(); ++i) {
      ASSERT_TRUE(std::isfinite(p->value[i]));
    }
  }
  // The final checkpoint reflects the full 4-epoch schedule.
  nn::Metadata meta;
  Rng rng_c(1);
  fno::Fno probe(tiny_fno_config(), rng_c);
  nn::load_parameters(ckpt, probe.parameters(), &meta);
  EXPECT_DOUBLE_EQ(meta.at("epoch"), 4.0);
  std::remove(ckpt.c_str());
}

TEST(RobustTrainer, PeriodicCheckpointsAreWritten) {
  const std::string ckpt = temp_path("robust_periodic.tnn");
  std::remove(ckpt.c_str());
  Rng rng(66);
  fno::Fno model(tiny_fno_config(), rng);
  nn::DataLoader loader(random_tensor({8, 3, 16, 16}, 41),
                        random_tensor({8, 2, 16, 16}, 42), 4, true, 9);
  fno::TrainConfig cfg;
  cfg.epochs = 4;
  cfg.verbose = false;
  cfg.checkpoint_path = ckpt;
  cfg.checkpoint_every = 1;
  const fno::TrainResult result = fno::train_fno(model, loader, cfg);
  // Periodic writes after epochs 1, 2, 3 plus the final write at epoch 4.
  EXPECT_EQ(result.checkpoints_written, 4);
  EXPECT_TRUE(file_exists(ckpt));
  EXPECT_FALSE(file_exists(util::AtomicFileWriter::tmp_path_for(ckpt)));
  std::remove(ckpt.c_str());
}

}  // namespace
}  // namespace turb
