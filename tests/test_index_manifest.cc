/// Manifest and recovery robustness: every corruption mode of the durable
/// state (truncated manifest, flipped bytes, bad per-segment checksums,
/// missing segment files, stale or torn WAL records) must yield either a
/// clean Status error or a correct recovery — never UB, never silently wrong
/// lookups. Retired format versions (snapshot/manifest v1-v3, WAL
/// "SSJWALV1") are rejected with clean errors.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "index/manifest.h"
#include "index/mutable_index.h"
#include "index/wal.h"
#include "lookup_corpus.h"

namespace ssjoin::index {
namespace {

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A small durable index with one sealed generation plus unsealed churn —
/// the standard corpse the corruption tests dissect.
MutableIndexOptions MakeDurable(const std::string& dir,
                                const std::vector<std::string>& master) {
  MutableIndexOptions options;
  options.match.alpha = 0.35;
  options.seal_threshold = 0;
  options.max_generations = 0;
  options.data_dir = dir;
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  for (size_t i = 0; i < master.size(); ++i) {
    EXPECT_TRUE(index->Upsert(i, master[i]).ok());
  }
  EXPECT_TRUE(index->Seal().ok());
  EXPECT_TRUE(index->Upsert(0, "replacement after seal").ok());
  EXPECT_TRUE(index->Delete(1).ok());
  return options;
}

TEST(ManifestTest, SaveLoadRoundTrip) {
  Manifest m;
  m.options.alpha = 0.42;
  m.options.word_tokens = false;
  m.options.q = 2;
  m.epoch = 17;
  m.last_sealed_seq = 9;
  m.next_serial = 3;
  m.dict_entries.push_back({"street|0", 0, 4});
  m.dict_entries.push_back({"main|0", 0, 2});
  m.dict_num_documents = 6;
  m.segments.push_back({1, "seg-1.seg", 0xdeadbeefULL, 6});
  m.wal_file = "wal-2.wal";

  std::string path = ::testing::TempDir() + "/manifest_roundtrip";
  ASSERT_TRUE(SaveManifest(m, path).ok());
  auto loaded = LoadManifest(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->options.alpha, m.options.alpha);
  EXPECT_EQ(loaded->options.word_tokens, false);
  EXPECT_EQ(loaded->options.q, 2u);
  EXPECT_EQ(loaded->epoch, 17u);
  EXPECT_EQ(loaded->last_sealed_seq, 9u);
  EXPECT_EQ(loaded->next_serial, 3u);
  ASSERT_EQ(loaded->dict_entries.size(), 2u);
  EXPECT_EQ(loaded->dict_entries[0].token, "street|0");
  EXPECT_EQ(loaded->dict_entries[0].doc_frequency, 4u);
  EXPECT_EQ(loaded->dict_num_documents, 6u);
  ASSERT_EQ(loaded->segments.size(), 1u);
  EXPECT_EQ(loaded->segments[0].file, "seg-1.seg");
  EXPECT_EQ(loaded->segments[0].checksum, 0xdeadbeefULL);
  EXPECT_EQ(loaded->wal_file, "wal-2.wal");
  std::remove(path.c_str());
}

class ManifestCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = FreshDir(std::string("manifest_") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name());
    master_ = Master(80, 61);
    options_ = MakeDurable(dir_, master_);
    manifest_path_ = dir_ + "/" + kManifestFileName;
    bytes_ = ReadBytes(manifest_path_);
    ASSERT_GT(bytes_.size(), 24u);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::vector<std::string> master_;
  MutableIndexOptions options_;
  std::string manifest_path_;
  std::string bytes_;
};

TEST_F(ManifestCorruptionTest, TruncatedManifestRejected) {
  for (size_t cut : {size_t{0}, size_t{7}, size_t{15}, size_t{16},
                     bytes_.size() / 2, bytes_.size() - 9, bytes_.size() - 1}) {
    WriteBytes(manifest_path_, bytes_.substr(0, cut));
    EXPECT_FALSE(MutableFuzzyIndex::Open(options_).ok()) << "cut at " << cut;
  }
}

TEST_F(ManifestCorruptionTest, FlippedPayloadByteFailsChecksum) {
  for (size_t pos : {size_t{16}, size_t{40}, bytes_.size() / 2,
                     bytes_.size() - 9}) {
    std::string bad = bytes_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x20);
    WriteBytes(manifest_path_, bad);
    auto loaded = LoadManifest(manifest_path_);
    ASSERT_FALSE(loaded.ok()) << "flip at " << pos;
    EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
        << "flip at " << pos;
  }
}

TEST_F(ManifestCorruptionTest, WrongMagicRejected) {
  std::string bad = bytes_;
  bad[0] = 'X';
  WriteBytes(manifest_path_, bad);
  auto loaded = LoadManifest(manifest_path_);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("magic"), std::string::npos);
}

TEST_F(ManifestCorruptionTest, BadSegmentChecksumRejectedAtOpen) {
  auto manifest = LoadManifest(manifest_path_);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest->segments.empty());
  std::string seg_path = dir_ + "/" + manifest->segments[0].file;
  std::string seg_bytes = ReadBytes(seg_path);
  seg_bytes[seg_bytes.size() / 2] =
      static_cast<char>(seg_bytes[seg_bytes.size() / 2] ^ 0x08);
  WriteBytes(seg_path, seg_bytes);

  auto opened = MutableFuzzyIndex::Open(options_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
  EXPECT_NE(opened.status().ToString().find("checksum"), std::string::npos);
}

TEST_F(ManifestCorruptionTest, MissingSegmentFileRejectedAtOpen) {
  auto manifest = LoadManifest(manifest_path_);
  ASSERT_TRUE(manifest.ok());
  ASSERT_FALSE(manifest->segments.empty());
  ASSERT_TRUE(
      std::filesystem::remove(dir_ + "/" + manifest->segments[0].file));
  EXPECT_FALSE(MutableFuzzyIndex::Open(options_).ok());
}

TEST_F(ManifestCorruptionTest, MissingWalRecoversSealedStateOnly) {
  // A vanished WAL is tolerated (a fresh one is created): the sealed
  // generation recovers intact, only the unsealed churn is lost.
  auto manifest = LoadManifest(manifest_path_);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(std::filesystem::remove(dir_ + "/" + manifest->wal_file));
  auto opened = MutableFuzzyIndex::Open(options_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto state = (*opened)->Snapshot();
  // The post-seal upsert(0) and delete(1) lived only in the WAL: gone.
  EXPECT_EQ((*opened)->ValueAt(*state, 0).value_or(""), master_[0]);
  EXPECT_EQ((*opened)->ValueAt(*state, 1).value_or(""), master_[1]);
  EXPECT_EQ((*opened)->GetStats().live_docs, master_.size());
}

TEST_F(ManifestCorruptionTest, StaleWalRecordSkippedAtReplay) {
  auto manifest = LoadManifest(manifest_path_);
  ASSERT_TRUE(manifest.ok());
  ASSERT_GT(manifest->last_sealed_seq, 0u);

  // Append a record whose seq is already covered by the sealed generation:
  // replay must skip it, so the bogus doc never appears.
  {
    auto wal = WalWriter::OpenForAppend(dir_ + "/" + manifest->wal_file);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    WalRecord stale;
    stale.type = WalRecord::kUpsert;
    stale.seq = 1;  // <= last_sealed_seq, therefore stale
    stale.doc_id = 777;
    stale.value = "stale record that must not surface";
    ASSERT_TRUE(wal->Append(stale).ok());
    // A genuinely fresh record after it must still be applied.
    WalRecord fresh;
    fresh.type = WalRecord::kUpsert;
    fresh.seq = manifest->last_sealed_seq + 10;
    fresh.doc_id = 888;
    fresh.value = "fresh record that must surface";
    ASSERT_TRUE(wal->Append(fresh).ok());
  }

  auto opened = MutableFuzzyIndex::Open(options_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  auto state = (*opened)->Snapshot();
  EXPECT_FALSE((*opened)->ValueAt(*state, 777).has_value());
  EXPECT_EQ((*opened)->ValueAt(*state, 888).value_or(""),
            "fresh record that must surface");
}

TEST_F(ManifestCorruptionTest, TornWalTailTruncatedCleanly) {
  auto manifest = LoadManifest(manifest_path_);
  ASSERT_TRUE(manifest.ok());
  std::string wal_path = dir_ + "/" + manifest->wal_file;
  std::string wal_bytes = ReadBytes(wal_path);
  // A crash mid-append leaves a partial record: claim a long body, supply
  // only garbage bytes.
  uint32_t bogus_len = 1000;
  wal_bytes.append(reinterpret_cast<const char*>(&bogus_len), sizeof(bogus_len));
  wal_bytes.append("torn");
  WriteBytes(wal_path, wal_bytes);

  auto opened = MutableFuzzyIndex::Open(options_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // The intact records before the torn tail survived.
  auto state = (*opened)->Snapshot();
  EXPECT_EQ((*opened)->ValueAt(*state, 0).value_or(""),
            "replacement after seal");
  EXPECT_FALSE((*opened)->ValueAt(*state, 1).has_value());
  // And the WAL is whole again: new appends + another reopen round-trip.
  ASSERT_TRUE((*opened)->Upsert(42, "written after torn-tail repair").ok());
  opened->reset();
  auto again = MutableFuzzyIndex::Open(options_);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->ValueAt(*(*again)->Snapshot(), 42).value_or(""),
            "written after torn-tail repair");
}

// ---------------------------------------------------------------------------
// Version compatibility.

/// Retired format versions, checked on the same durable corpse.
class ManifestCompatTest : public ManifestCorruptionTest {};

/// The manifest image with its version field (bytes [8, 12)) replaced.
std::string WithVersion(std::string bytes, uint32_t version) {
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  return bytes;
}

TEST_F(ManifestCompatTest, V2SnapshotYieldsCleanVersionError) {
  // The retired immutable-index snapshots shared the manifest's "SSJSNAPS"
  // container at versions 1 and 2; such a file must fail with a clean
  // Invalid naming the version.
  for (uint32_t version : {1u, 2u}) {
    WriteBytes(manifest_path_, WithVersion(bytes_, version));
    auto loaded = LoadManifest(manifest_path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().ToString().find("version " +
                                              std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST_F(ManifestCompatTest, V3ManifestRejectedNamingVersion) {
  // Version 3 (the pre-attribute manifest) is no longer read, at Open too.
  WriteBytes(manifest_path_, WithVersion(bytes_, 3));
  auto opened = MutableFuzzyIndex::Open(options_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().ToString().find("version 3"), std::string::npos)
      << opened.status().ToString();
  WriteBytes(manifest_path_, WithVersion(bytes_, kManifestVersion + 1));
  EXPECT_FALSE(MutableFuzzyIndex::Open(options_).ok());
}

TEST_F(ManifestCompatTest, V1WalRejectedCleanly) {
  // A WAL with the retired attribute-less "SSJWALV1" magic fails to read
  // and fails Open with an IOError — it is never replayed as garbage.
  auto manifest = LoadManifest(manifest_path_);
  ASSERT_TRUE(manifest.ok());
  std::string wal_path = dir_ + "/" + manifest->wal_file;
  std::string wal_bytes = ReadBytes(wal_path);
  ASSERT_EQ(wal_bytes.substr(0, 8), "SSJWALV2");
  wal_bytes[7] = '1';
  WriteBytes(wal_path, wal_bytes);

  auto read = ReadWal(wal_path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kIOError);
  EXPECT_NE(read.status().ToString().find("magic"), std::string::npos);
  auto opened = MutableFuzzyIndex::Open(options_);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace ssjoin::index
