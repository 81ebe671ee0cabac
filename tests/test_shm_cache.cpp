// The mmap'd open-addressing result cache (engine/shm_cache): slot
// round-trips, the torn/corrupt-reads-as-miss guarantee, the spill and
// promotion paths between the table and the file tier, gc compaction, and
// a multi-thread x multi-process hammer with a writer killed mid-store —
// the survivors must only ever see valid-checksum hits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "engine/scenario.hpp"
#include "engine/shm_cache.hpp"
#include "engine/solver_dispatch.hpp"
#include "engine/sweep_runner.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define ESCHED_TEST_HAS_FORK 1
#include <csignal>
#include <sys/wait.h>
#include <unistd.h>
#else
#define ESCHED_TEST_HAS_FORK 0
#endif

namespace esched {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

/// A RunResult whose every packed field is a pure function of `i`, so any
/// process/thread can independently derive what a hit for key i must be.
RunResult result_for(std::size_t i) {
  RunResult r;
  r.mean_response_time = 1.0 + 0.001 * static_cast<double>(i);
  r.mean_response_time_i = 2.0 + static_cast<double>(i);
  r.mean_response_time_e = 1.0 / (1.0 + static_cast<double>(i));
  r.mean_jobs_e = 0.5 * static_cast<double>(i);
  r.p50_i = 0.25 * static_cast<double>(i);
  r.p99_i = 7.0 * static_cast<double>(i) + 0.25;
  r.boundary_mass = 1e-9;
  r.num_states = static_cast<long>(100 + i);
  r.dom_checkpoints = static_cast<long>(i);
  r.solver_iterations = static_cast<int>(i % 97);
  r.solve_residual = 1e-12;
  r.solve_seconds = 0.125;
  return r;
}

std::string key_for(std::size_t i) {
  return "hammer;point=" + std::to_string(i);
}

/// Bitwise equality over every persisted field (numerically_equal ignores
/// provenance fields; this does not even tolerate -0.0 vs 0.0).
bool packed_identical(const RunResult& a, const RunResult& b) {
  std::vector<unsigned char> pa(run_result_packed_bytes());
  std::vector<unsigned char> pb(run_result_packed_bytes());
  pack_run_result(a, pa.data());
  pack_run_result(b, pb.data());
  return std::memcmp(pa.data(), pb.data(), pa.size()) == 0;
}

std::uint64_t read_u64_at(std::fstream& f, std::uint64_t offset) {
  f.seekg(static_cast<std::streamoff>(offset));
  std::uint64_t v = 0;
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}

void write_u64_at(std::fstream& f, std::uint64_t offset, std::uint64_t v) {
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  f.flush();
}

/// File offset of the first slot holding `state`, or nullopt.
std::optional<std::uint64_t> find_slot_with_state(const ShmTableInfo& info,
                                                  std::fstream& f,
                                                  std::uint64_t state) {
  for (std::uint64_t i = 0; i < info.slot_count; ++i) {
    const std::uint64_t offset = info.header_bytes + i * info.slot_bytes;
    if (read_u64_at(f, offset) == state) return offset;
  }
  return std::nullopt;
}

TEST(PackedRunResult, RoundTripsBitwise) {
  RunResult r = result_for(41);
  r.mean_response_time = 1.0 / 3.0;
  r.ci_halfwidth = 1e-300;
  r.dom_max_violation = -0.0;
  std::vector<unsigned char> packed(run_result_packed_bytes());
  pack_run_result(r, packed.data());
  const RunResult back = unpack_run_result(packed.data());
  EXPECT_TRUE(packed_identical(r, back));
  EXPECT_EQ(back.num_states, r.num_states);
  EXPECT_EQ(back.solver_iterations, r.solver_iterations);
  EXPECT_EQ(std::signbit(back.dom_max_violation),
            std::signbit(r.dom_max_violation));
}

TEST(ShmCache, StoreLoadRoundTripAndMiss) {
  const std::string dir = fresh_dir("esched_shm_roundtrip");
  fs::create_directories(dir);
  auto table = ShmResultCache::open_or_create(dir, 256);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->slot_count(), 256u);

  EXPECT_FALSE(table->load(key_for(0)).has_value());
  EXPECT_TRUE(table->store(key_for(0), result_for(0)));
  const auto hit = table->load(key_for(0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(packed_identical(*hit, result_for(0)));
  EXPECT_FALSE(table->load(key_for(1)).has_value());
  // Re-storing an existing key is a no-op success (first writer wins).
  EXPECT_TRUE(table->store(key_for(0), result_for(0)));

  // A second mapping of the same file sees the entry (what worker
  // processes do).
  auto remapped = ShmResultCache::open_existing(dir);
  ASSERT_NE(remapped, nullptr);
  const auto rehit = remapped->load(key_for(0));
  ASSERT_TRUE(rehit.has_value());
  EXPECT_TRUE(packed_identical(*rehit, result_for(0)));

  const ShmTableInfo info = table->info();
  EXPECT_EQ(info.valid_slots, 1u);
  EXPECT_EQ(info.wedged_slots, 0u);
  EXPECT_EQ(info.payload_bytes, run_result_packed_bytes());
  fs::remove_all(dir);
}

TEST(ShmCache, OversizedKeySpillsToFileTier) {
  const std::string dir = fresh_dir("esched_shm_spill_key");
  const TieredResultCache cache(dir);
  ASSERT_NE(cache.table(), nullptr);
  const std::string long_key(cache.table()->key_capacity() + 1, 'k');
  EXPECT_FALSE(cache.table()->representable(long_key));

  cache.store(long_key, result_for(7));
  // The entry must live in the file tier and still round-trip.
  EXPECT_EQ(cache.table()->info().valid_slots, 0u);
  EXPECT_TRUE(fs::exists(cache.files().entry_path(long_key)));
  const auto hit = cache.load(long_key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(packed_identical(*hit, result_for(7)));
  // An oversized key can never be promoted; the file copy stays.
  EXPECT_TRUE(fs::exists(cache.files().entry_path(long_key)));
  fs::remove_all(dir);
}

TEST(ShmCache, FullTableSpillsAndEveryKeyStaysServable) {
  const std::string dir = fresh_dir("esched_shm_spill_full");
  fs::create_directories(dir);
  // kMinSlotCount: tiny on purpose, pre-created as `cache init --slots`
  // does.
  ASSERT_NE(ShmResultCache::open_or_create(dir, 64), nullptr);
  const TieredResultCache cache(dir);
  ASSERT_NE(cache.table(), nullptr);
  constexpr std::size_t kKeys = 100;  // > slot count: some must spill
  for (std::size_t i = 0; i < kKeys; ++i) cache.store(key_for(i), result_for(i));
  const std::uint64_t in_table = cache.table()->info().valid_slots;
  EXPECT_LE(in_table, 64u);
  EXPECT_LT(in_table, kKeys);  // the overflow spilled...
  for (std::size_t i = 0; i < kKeys; ++i) {  // ...but nothing was lost
    const auto hit = cache.load(key_for(i));
    ASSERT_TRUE(hit.has_value()) << key_for(i);
    EXPECT_TRUE(packed_identical(*hit, result_for(i))) << key_for(i);
  }
  EXPECT_EQ(cache.list_entries().size(), kKeys);
  fs::remove_all(dir);
}

TEST(ShmCache, ChecksumCorruptionReadsAsMissNeverWrongResult) {
  const std::string dir = fresh_dir("esched_shm_corrupt");
  fs::create_directories(dir);
  auto table = ShmResultCache::open_or_create(dir, 64);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(table->store("victim", result_for(3)));
  ASSERT_TRUE(table->load("victim").has_value());

  const ShmTableInfo info = table->info();
  std::fstream f(info.path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  const auto slot =
      find_slot_with_state(info, f, ShmResultCache::kStateValid);
  ASSERT_TRUE(slot.has_value());
  // Flip one payload byte behind the published checksum.
  const std::uint64_t victim_byte = *slot + info.payload_offset + 3;
  f.seekg(static_cast<std::streamoff>(victim_byte));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ 0x40);
  f.seekp(static_cast<std::streamoff>(victim_byte));
  f.write(&b, 1);
  f.flush();

  // The slot is still `valid` with a matching key — only the checksum
  // knows. It must read as a miss, in this mapping and a fresh one.
  EXPECT_FALSE(table->load("victim").has_value());
  auto remapped = ShmResultCache::open_existing(dir);
  ASSERT_NE(remapped, nullptr);
  EXPECT_FALSE(remapped->load("victim").has_value());
  // The manifest skips it too, and compaction drops it.
  EXPECT_TRUE(table->list_entries().empty());
  table->compact(64);
  EXPECT_EQ(table->info().valid_slots, 0u);
  fs::remove_all(dir);
}

TEST(ShmCache, HeaderClaimingMoreSlotsThanTheFileHoldsIsRejected) {
  const std::string dir = fresh_dir("esched_shm_forged_slots");
  fs::create_directories(dir);
  ASSERT_NE(ShmResultCache::open_or_create(dir, 64), nullptr);
  // A header-only (4 KiB) file, otherwise valid, that claims 2^55 slots:
  // 2^55 slots of 512 B wrap a 64-bit byte count to zero.
  const std::string path = ShmResultCache::table_path(dir);
  fs::resize_file(path, 4096);
  {
    constexpr std::uint64_t kHdrSlotCount = 24;  // the header's slot count
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    ASSERT_EQ(read_u64_at(f, kHdrSlotCount), 64u);
    write_u64_at(f, kHdrSlotCount, std::uint64_t{1} << 55);
  }
  EXPECT_EQ(ShmResultCache::open_existing(dir), nullptr);

  // The directory still works through the file tier.
  const TieredResultCache cache(dir);
  EXPECT_EQ(cache.table(), nullptr);
  cache.store(key_for(9), result_for(9));
  EXPECT_TRUE(fs::exists(cache.files().entry_path(key_for(9))));
  const auto hit = cache.load(key_for(9));
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(packed_identical(*hit, result_for(9)));
  fs::remove_all(dir);
}

TEST(ShmCache, SlotCountWhoseTableWouldNotFitAFileIsRefused) {
  const std::string dir = fresh_dir("esched_shm_too_many_slots");
  fs::create_directories(dir);
  EXPECT_THROW(ShmResultCache::open_or_create(
                   dir, ShmResultCache::kMaxSlotCount + 1),
               Error);
  EXPECT_FALSE(fs::exists(ShmResultCache::table_path(dir)));
  fs::remove_all(dir);
}

TEST(ShmCache, FileOnlyDirectoryUpgradesViaPromotion) {
  const std::string dir = fresh_dir("esched_shm_promote");
  {
    // Legacy state: per-entry files only, no table.
    const DiskResultCache files(dir);
    for (std::size_t i = 0; i < 5; ++i) files.store(key_for(i), result_for(i));
    ASSERT_FALSE(fs::exists(ShmResultCache::table_path(dir)));
  }
  const TieredResultCache cache(dir);
  ASSERT_NE(cache.table(), nullptr);
  for (std::size_t i = 0; i < 5; ++i) {
    const auto hit = cache.load(key_for(i));
    ASSERT_TRUE(hit.has_value()) << key_for(i);
    EXPECT_TRUE(packed_identical(*hit, result_for(i)));
  }
  // Every touched key moved tiers: slot published, file retired, no
  // double counting in the manifest.
  EXPECT_EQ(cache.table()->info().valid_slots, 5u);
  EXPECT_TRUE(cache.files().list_entries(false).empty());
  const auto entries = cache.list_entries();
  ASSERT_EQ(entries.size(), 5u);
  for (const auto& entry : entries) EXPECT_EQ(entry.tier, "table");
  // Table hits on the second pass (files are gone, so this proves it).
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(cache.load(key_for(i)).has_value());
  }
  fs::remove_all(dir);
}

TEST(ShmCache, GcCompactsWedgedSlotsAndAppliesByteBudget) {
  const std::string dir = fresh_dir("esched_shm_gc");
  fs::create_directories(dir);
  ASSERT_NE(ShmResultCache::open_or_create(dir, 64), nullptr);
  const TieredResultCache cache(dir);
  ASSERT_NE(cache.table(), nullptr);
  for (std::size_t i = 0; i < 10; ++i) cache.store(key_for(i), result_for(i));

  // Simulate a writer killed between its CAS claim and its publish.
  {
    const ShmTableInfo info = cache.table()->info();
    std::fstream f(info.path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    const auto empty =
        find_slot_with_state(info, f, ShmResultCache::kStateEmpty);
    ASSERT_TRUE(empty.has_value());
    write_u64_at(f, *empty, ShmResultCache::kStateWriting);
  }
  EXPECT_EQ(cache.table()->info().wedged_slots, 1u);

  // An age-only gc touches no table entry but rebuilds away the wedge.
  const CacheGcResult aged = cache.gc(1e9, std::nullopt);
  EXPECT_EQ(aged.scanned, 10u);
  EXPECT_EQ(aged.removed, 0u);
  EXPECT_EQ(cache.table()->info().wedged_slots, 0u);
  EXPECT_EQ(cache.table()->info().valid_slots, 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(cache.load(key_for(i)).has_value()) << key_for(i);
  }

  // A byte budget for half the entries keeps the newest-stored half.
  const std::uint64_t slot_bytes = cache.table()->slot_bytes();
  const CacheGcResult half = cache.gc(std::nullopt, 5 * slot_bytes);
  EXPECT_EQ(half.removed, 5u);
  EXPECT_EQ(half.bytes_kept, 5 * slot_bytes);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(cache.load(key_for(i)).has_value()) << "oldest kept";
  }
  for (std::size_t i = 5; i < 10; ++i) {
    EXPECT_TRUE(cache.load(key_for(i)).has_value()) << "newest dropped";
  }

  // --max-bytes 0 empties the directory's entries entirely.
  const CacheGcResult all = cache.gc(std::nullopt, 0);
  EXPECT_EQ(all.removed, 5u);
  EXPECT_TRUE(cache.list_entries().empty());
  fs::remove_all(dir);
}

TEST(SweepRunner, TableCachePersistsAcrossRunnersWithoutEntryFiles) {
  const std::string dir = fresh_dir("esched_shm_sweep");
  Scenario s;
  s.name = "shm";
  s.k_values = {2, 4};
  s.rho_values = {0.5, 0.7};
  s.mu_i_values = {1.0};
  s.mu_e_values = {1.0};
  s.policies = {"IF", "EF"};
  s.solvers = {SolverKind::kQbdAnalysis};
  const auto points = s.expand();

  SweepRunner first(2);
  first.set_cache_dir(dir);
  SweepStats cold;
  const auto solved = first.run(points, &cold);
  EXPECT_EQ(cold.solved_points, points.size());

  // Everything landed in the table: no per-entry files were written.
  std::size_t result_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".result") ++result_files;
  }
  EXPECT_EQ(result_files, 0u);
  EXPECT_TRUE(fs::exists(ShmResultCache::table_path(dir)));

  SweepRunner second(2);
  second.set_cache_dir(dir);
  SweepStats warm;
  const auto loaded = second.run(points, &warm);
  EXPECT_EQ(warm.solved_points, 0u);
  EXPECT_EQ(warm.disk_hits, points.size());
  for (std::size_t n = 0; n < points.size(); ++n) {
    EXPECT_TRUE(loaded[n].from_cache);
    EXPECT_TRUE(numerically_equal(solved[n], loaded[n]))
        << points[n].cache_key();
  }
  fs::remove_all(dir);
}

#if ESCHED_TEST_HAS_FORK

/// Body of one hammer process: 4 threads interleave load/store over the
/// shared table, each verifying every hit against the key-derived
/// expectation. Returns 0 = clean, 1 = a wrong-result hit was observed,
/// 2 = could not map the table. Runs in forked children via _exit(), so
/// no gtest assertions here.
int hammer_process(const std::string& dir, std::size_t keys, unsigned salt) {
  auto table = ShmResultCache::open_existing(dir);
  if (table == nullptr) return 2;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t stride = 1 + ((salt + t) % 7);
      for (int round = 0; round < 40 && wrong.load() == 0; ++round) {
        for (std::size_t n = 0; n < keys; ++n) {
          const std::size_t i = (n * stride + t) % keys;
          const std::string key = key_for(i);
          if (const auto hit = table->load(key)) {
            if (!packed_identical(*hit, result_for(i))) {
              wrong.store(1);
              return;
            }
          }
          table->store(key, result_for(i));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  return wrong.load();
}

TEST(ShmCacheHammer, ThreadsTimesProcessesSurviveAMidStoreKill) {
  const std::string dir = fresh_dir("esched_shm_hammer");
  fs::create_directories(dir);
  constexpr std::size_t kKeys = 96;
  {
    auto table = ShmResultCache::open_or_create(dir, 512);
    ASSERT_NE(table, nullptr);
  }

  // Process 1: a doomed single-threaded writer storing in a loop; the
  // parent SIGKILLs it mid-store, which may wedge at most one slot.
  const pid_t victim = fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    auto table = ShmResultCache::open_existing(dir);
    if (table == nullptr) _exit(2);
    for (std::size_t n = 0;; ++n) {
      const std::size_t i = n % kKeys;
      table->store(key_for(i), result_for(i));
    }
  }

  // Process 2: the multi-threaded hammer (threads start after fork —
  // required under TSan, and the realistic worker shape anyway).
  const pid_t worker = fork();
  ASSERT_GE(worker, 0);
  if (worker == 0) _exit(hammer_process(dir, kKeys, 7));

  // The parent hammers the same table concurrently, and kills the victim
  // while all three processes are mid-traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  EXPECT_EQ(hammer_process(dir, kKeys, 3), 0);

  int status = 0;
  ASSERT_EQ(waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_EQ(waitpid(worker, &status, 0), worker);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "a survivor saw a wrong result";

  // Post-mortem: every key is present and correct, the kill wedged at
  // most one slot, and gc's rebuild reclaims it without losing entries.
  auto table = ShmResultCache::open_existing(dir);
  ASSERT_NE(table, nullptr);
  for (std::size_t i = 0; i < kKeys; ++i) {
    const auto hit = table->load(key_for(i));
    ASSERT_TRUE(hit.has_value()) << key_for(i);
    EXPECT_TRUE(packed_identical(*hit, result_for(i))) << key_for(i);
  }
  const ShmTableInfo info = table->info();
  EXPECT_EQ(info.valid_slots, kKeys);
  EXPECT_LE(info.wedged_slots, 1u);
  const TieredResultCache cache(dir, /*create_table=*/false);
  ASSERT_NE(cache.table(), nullptr);
  cache.gc(1e9, std::nullopt);
  EXPECT_EQ(cache.table()->info().wedged_slots, 0u);
  EXPECT_EQ(cache.table()->info().valid_slots, kKeys);
  fs::remove_all(dir);
}

#endif  // ESCHED_TEST_HAS_FORK

}  // namespace
}  // namespace esched
