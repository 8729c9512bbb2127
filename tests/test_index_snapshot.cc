/// Snapshot round-trip and robustness. A snapshot is a data dir holding one
/// sealed segment (what `ssjoin_cli snapshot` writes: Create + BulkLoad +
/// Seal). A reopened snapshot must answer bit-identically to the index it was
/// written from, and every corruption of its segment file (truncation, bad
/// magic, unsupported version, bit flips, broken CSR arrays, element ids past
/// the dictionary) must yield a clean Status error from Segment::DecodeFile —
/// never UB or a partially initialized segment.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/atomic_file.h"
#include "common/hash.h"
#include "fuzz/oracles.h"
#include "index/manifest.h"
#include "index/mutable_index.h"
#include "index/segment.h"
#include "lookup_corpus.h"

namespace ssjoin::index {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Writes `master` as a snapshot into `dir` (doc id = row index).
std::unique_ptr<MutableFuzzyIndex> WriteSnapshot(
    const std::vector<std::string>& master, const MatchOptions& match,
    const std::string& dir) {
  MutableIndexOptions options;
  options.match = match;
  options.data_dir = dir;
  auto index = MutableFuzzyIndex::Create(options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  EXPECT_TRUE((*index)->BulkLoad(records).ok());
  EXPECT_TRUE((*index)->Seal().ok());
  return std::move(*index);
}

Result<std::unique_ptr<MutableFuzzyIndex>> OpenSnapshot(const std::string& dir) {
  MutableIndexOptions options;
  options.data_dir = dir;
  return MutableFuzzyIndex::Open(options);
}

/// Path of the snapshot's one segment file, as named by its manifest.
std::string SegmentPath(const std::string& dir) {
  auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest->segments.size(), 1u);
  return dir + "/" + manifest->segments.at(0).file;
}

/// The dictionary size `dir`'s manifest records: every element id of its
/// segments must be below it.
size_t DictSize(const std::string& dir) {
  auto manifest = LoadManifest(dir + "/" + kManifestFileName);
  EXPECT_TRUE(manifest.ok()) << manifest.status().ToString();
  return manifest->dict_entries.size();
}

/// `reopened` must answer bit-identically to `built` and to the brute-force
/// oracle over `master`.
void ExpectIdenticalLookups(const MutableFuzzyIndex& built,
                            const MutableFuzzyIndex& reopened,
                            const std::vector<std::string>& master,
                            const std::vector<std::string>& queries, size_t k) {
  for (const std::string& q : queries) {
    auto a = built.Lookup(q, k);
    auto b = reopened.Lookup(q, k);
    auto want = fuzz::BruteForceLookup(master, reopened.tokenizer(),
                                       reopened.options().match.alpha, q, k);
    ASSERT_EQ(a.size(), b.size()) << "query: " << q;
    ASSERT_EQ(b.size(), want.size()) << "query: " << q;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "query: " << q;
      EXPECT_EQ(b[i].id, want[i].index) << "query: " << q;
      // Bit-identical, not just approximately equal.
      EXPECT_EQ(a[i].similarity, b[i].similarity) << "query: " << q;
      EXPECT_EQ(b[i].similarity, want[i].similarity) << "query: " << q;
    }
  }
}

TEST(SnapshotTest, RoundTripWordTokens) {
  auto master = Master(400, 21);
  MatchOptions match;
  match.alpha = 0.35;
  std::string dir = FreshDir("snapshot_word");
  auto built = WriteSnapshot(master, match, dir);
  auto reopened = OpenSnapshot(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

  const MatchOptions& got = (*reopened)->options().match;
  EXPECT_EQ(got.alpha, match.alpha);
  EXPECT_TRUE(got.word_tokens);
  MutableFuzzyIndex::Stats stats = (*reopened)->GetStats();
  EXPECT_EQ(stats.live_docs, master.size());
  EXPECT_EQ(stats.sealed_segments, 1u);
  EXPECT_EQ(stats.tail_docs, 0u);

  auto queries = DirtyQueries(master, 100, 99);
  queries.push_back(master[0]);
  queries.push_back("completely unknown vocabulary");
  ExpectIdenticalLookups(*built, **reopened, master, queries, 5);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, RoundTripQGramTokens) {
  auto master = Master(200, 22);
  MatchOptions match;
  match.word_tokens = false;
  match.q = 3;
  match.alpha = 0.4;
  std::string dir = FreshDir("snapshot_qgram");
  auto built = WriteSnapshot(master, match, dir);
  auto reopened = OpenSnapshot(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE((*reopened)->options().match.word_tokens);
  EXPECT_EQ((*reopened)->options().match.q, 3u);
  ExpectIdenticalLookups(*built, **reopened, master, DirtyQueries(master, 50, 99), 3);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, RoundTripEmptyReference) {
  std::string dir = FreshDir("snapshot_empty");
  WriteSnapshot({}, MatchOptions(), dir);
  auto reopened = OpenSnapshot(dir);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->GetStats().live_docs, 0u);
  EXPECT_TRUE((*reopened)->Lookup("anything", 5).empty());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, MissingFile) {
  auto reopened = OpenSnapshot(FreshDir("snapshot_does_not_exist"));
  EXPECT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kIOError);
}

/// A snapshot's segment file image; each test corrupts a copy and hands it
/// to Segment::DecodeFile.
class SnapshotCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MatchOptions match;
    match.alpha = 0.4;
    // Unique per test: ctest runs fixture tests as parallel processes.
    dir_ = FreshDir(std::string("snapshot_corrupt_") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name());
    WriteSnapshot(Master(150, 23), match, dir_);
    bytes_ = ReadFile(SegmentPath(dir_));
    dict_size_ = DictSize(dir_);
    ASSERT_GT(bytes_.size(), kSegmentHeaderSize + sizeof(uint64_t));
    ASSERT_TRUE(Segment::DecodeFile(bytes_, dict_size_).ok());
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
  std::string bytes_;
  size_t dict_size_ = 0;
};

TEST_F(SnapshotCorruptionTest, TruncatedAtEveryRegion) {
  // Sample truncation points across the whole file: inside the header,
  // inside the payload, and just short of the checksum.
  std::vector<size_t> cuts = {0,
                              4,
                              kSegmentHeaderSize - 1,
                              kSegmentHeaderSize,
                              kSegmentHeaderSize + 5,
                              bytes_.size() / 2,
                              bytes_.size() - sizeof(uint64_t),
                              bytes_.size() - 1};
  for (size_t cut : cuts) {
    EXPECT_FALSE(Segment::DecodeFile(bytes_.substr(0, cut), dict_size_).ok())
        << "cut at " << cut;
  }
}

TEST_F(SnapshotCorruptionTest, WrongMagic) {
  std::string bad = bytes_;
  bad[0] = 'X';
  auto decoded = Segment::DecodeFile(bad, dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  EXPECT_NE(decoded.status().message().find("magic"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, FutureVersion) {
  std::string bad = bytes_;
  bad[8] = static_cast<char>(kSegmentVersion + 1);
  auto decoded = Segment::DecodeFile(bad, dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  EXPECT_NE(decoded.status().message().find("version"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, FlippedPayloadByteFailsChecksum) {
  // Flip one byte at several payload positions; the checksum must catch all
  // of them before any decoding happens.
  for (size_t pos : {kSegmentHeaderSize, kSegmentHeaderSize + 17,
                     bytes_.size() / 2, bytes_.size() - sizeof(uint64_t) - 1}) {
    std::string bad = bytes_;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x40);
    auto decoded = Segment::DecodeFile(bad, dict_size_);
    ASSERT_FALSE(decoded.ok()) << "flip at " << pos;
    EXPECT_EQ(decoded.status().code(), StatusCode::kIOError) << "flip at " << pos;
    EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos)
        << "flip at " << pos;
  }
}

TEST_F(SnapshotCorruptionTest, FlippedChecksumByte) {
  std::string bad = bytes_;
  bad[bytes_.size() - 1] = static_cast<char>(bad[bytes_.size() - 1] ^ 0x01);
  auto decoded = Segment::DecodeFile(bad, dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

TEST_F(SnapshotCorruptionTest, TrailingGarbageRejected) {
  // Appending bytes shifts the checksum read, so this fails one way or the
  // other; the point is it fails cleanly.
  EXPECT_FALSE(
      Segment::DecodeFile(bytes_ + std::string(16, '\0'), dict_size_).ok());
}

TEST(SnapshotCompatTest, V1SegmentRejected) {
  // Version 1 segments (written before records carried attributes) are no
  // longer read: the version check fails cleanly before any decoding.
  std::string dir = FreshDir("snapshot_compat_v1");
  WriteSnapshot(Master(40, 31), MatchOptions(), dir);
  std::string bytes = ReadFile(SegmentPath(dir));
  bytes[8] = 1;
  auto decoded = Segment::DecodeFile(bytes, DictSize(dir));
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  EXPECT_NE(decoded.status().message().find("version 1"), std::string::npos)
      << decoded.status().ToString();
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Decode-level corruption of the segment's flat CSR set arrays.

/// Patches payload bytes in a full segment image and rewrites the FNV
/// trailer so the corruption reaches the decoder instead of tripping the
/// checksum — these tests target the CSR validation behind the checksum.
std::string PatchPayloadAndRechecksum(std::string bytes, size_t payload_pos,
                                      const std::string& patch) {
  size_t abs = kSegmentHeaderSize + payload_pos;
  bytes.replace(abs, patch.size(), patch);
  size_t payload_size = bytes.size() - kSegmentHeaderSize - sizeof(uint64_t);
  uint64_t checksum = HashString(
      std::string_view(bytes.data() + kSegmentHeaderSize, payload_size));
  bytes.replace(bytes.size() - sizeof(uint64_t), sizeof(uint64_t),
                std::string(reinterpret_cast<const char*>(&checksum),
                            sizeof(checksum)));
  return bytes;
}

template <typename T>
std::string LE(T v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A small snapshot's segment image plus the payload positions of its CSR
/// offsets and token-id arrays, found by walking the payload forward over
/// the serial, doc ids and values (each Vec/Str is an 8-byte count + data).
class SnapshotV2CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MatchOptions match;
    match.alpha = 0.4;
    dir_ = FreshDir(std::string("snapshot_v2_") +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name());
    WriteSnapshot(Master(60, 29), match, dir_);
    bytes_ = ReadFile(SegmentPath(dir_));
    dict_size_ = DictSize(dir_);
    auto segment = Segment::DecodeFile(bytes_, dict_size_);
    ASSERT_TRUE(segment.ok()) << segment.status().ToString();
    segment_ = std::make_unique<Segment>(std::move(*segment));

    size_t pos = sizeof(uint64_t);                                  // serial
    pos += sizeof(uint64_t) + segment_->doc_ids.size() * sizeof(uint64_t);
    pos += sizeof(uint64_t);                                        // value count
    for (const std::string& v : segment_->values) pos += sizeof(uint64_t) + v.size();
    offsets_vec_pos_ = pos;
    pos += sizeof(uint64_t) + segment_->sets.offsets().size() * sizeof(uint32_t);
    token_ids_vec_pos_ = pos;
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Payload position of offsets entry `i` (past the count header).
  size_t OffsetEntryPos(size_t i) const {
    return offsets_vec_pos_ + sizeof(uint64_t) + i * sizeof(uint32_t);
  }

  std::unique_ptr<Segment> segment_;
  std::string dir_;
  std::string bytes_;
  size_t dict_size_ = 0;
  size_t offsets_vec_pos_ = 0;
  size_t token_ids_vec_pos_ = 0;
};

TEST_F(SnapshotV2CorruptionTest, WritesCurrentVersion) {
  uint32_t version = 0;
  std::memcpy(&version, bytes_.data() + 8, sizeof(version));
  EXPECT_EQ(version, kSegmentVersion);
  EXPECT_EQ(kSegmentVersion, 2u);
}

TEST_F(SnapshotV2CorruptionTest, SanityCheckSectionPositions) {
  // The walk must land the count headers on the real array lengths.
  uint64_t offsets_count = 0;
  std::memcpy(&offsets_count,
              bytes_.data() + kSegmentHeaderSize + offsets_vec_pos_,
              sizeof(offsets_count));
  EXPECT_EQ(offsets_count, segment_->sets.offsets().size());
  uint64_t token_count = 0;
  std::memcpy(&token_count,
              bytes_.data() + kSegmentHeaderSize + token_ids_vec_pos_,
              sizeof(token_count));
  EXPECT_EQ(token_count, segment_->sets.token_ids().size());
}

TEST_F(SnapshotV2CorruptionTest, TruncatedOffsetsArrayRejected) {
  // Claim more offsets entries than the payload holds: the bounds-checked
  // reader must fail cleanly before any CSR assembly.
  auto decoded = Segment::DecodeFile(
      PatchPayloadAndRechecksum(bytes_, offsets_vec_pos_,
                                LE<uint64_t>(UINT64_MAX / 8)),
      dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kIOError);
  EXPECT_NE(decoded.status().message().find("truncated"), std::string::npos);
}

TEST_F(SnapshotV2CorruptionTest, NonMonotoneOffsetsRejected) {
  ASSERT_GE(segment_->sets.num_groups(), 2u);
  // offsets[1] beyond the final offset breaks monotonicity mid-array.
  uint32_t huge = static_cast<uint32_t>(segment_->sets.total_elements() + 1);
  auto decoded = Segment::DecodeFile(
      PatchPayloadAndRechecksum(bytes_, OffsetEntryPos(1), LE<uint32_t>(huge)),
      dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2CorruptionTest, NonZeroFirstOffsetRejected) {
  auto decoded = Segment::DecodeFile(
      PatchPayloadAndRechecksum(bytes_, OffsetEntryPos(0), LE<uint32_t>(1)),
      dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(SnapshotV2CorruptionTest, ChecksumCoversFlatArrays) {
  // A bit flip inside the CSR arrays without a rewritten trailer must be
  // caught by the checksum.
  std::string bad = bytes_;
  size_t abs = kSegmentHeaderSize + token_ids_vec_pos_ + sizeof(uint64_t);
  bad[abs] = static_cast<char>(bad[abs] ^ 0x10);
  auto decoded = Segment::DecodeFile(bad, dict_size_);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().message().find("checksum"), std::string::npos);
}

TEST_F(SnapshotV2CorruptionTest, OutOfDictionaryElementRejectedByOpen) {
  // A token id at or past the dictionary size passes the segment checksum
  // (rewritten here, and the manifest's with it) and the CSR checks. Open
  // must fail cleanly before the postings are sized by the largest id; a
  // regressed check costs 2^24 offsets (megabytes), never an id near 2^32.
  ASSERT_GT(segment_->sets.total_elements(), 0u);
  const std::string manifest_path = dir_ + "/" + kManifestFileName;
  const std::string segment_path = SegmentPath(dir_);
  for (uint32_t id : {static_cast<uint32_t>(dict_size_), uint32_t{1} << 24}) {
    std::string bad = PatchPayloadAndRechecksum(
        bytes_, token_ids_vec_pos_ + sizeof(uint64_t), LE<uint32_t>(id));
    std::ofstream(segment_path, std::ios::binary | std::ios::trunc) << bad;
    auto manifest = LoadManifest(manifest_path);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
    manifest->segments.at(0).checksum = HashString(bad);
    ASSERT_TRUE(SaveManifest(*manifest, manifest_path).ok());

    auto reopened = OpenSnapshot(dir_);
    ASSERT_FALSE(reopened.ok()) << "token id " << id;
    EXPECT_EQ(reopened.status().code(), StatusCode::kIOError) << "token id " << id;
    EXPECT_NE(reopened.status().message().find("dictionary range"),
              std::string::npos)
        << reopened.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Atomic-write failure injection: a failed snapshot write (Seal) must leave
// no stray temp file behind and must never clobber the previous manifest.

size_t CountTempFiles(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") ++n;
  }
  return n;
}

TEST(SnapshotAtomicWriteTest, FailedSaveLeavesNoTempStrays) {
  auto master = Master(80, 71);
  MatchOptions match;
  match.alpha = 0.4;
  std::string dir = FreshDir("snapshot_atomic_fail");
  // A good snapshot first, so a failed rewrite has something to preserve.
  WriteSnapshot(master, match, dir);
  const std::string manifest_path = dir + "/" + kManifestFileName;
  std::string good_manifest = ReadFile(manifest_path);

  using common::AtomicWriteFailure;
  uint64_t next_id = master.size();
  for (AtomicWriteFailure mode :
       {AtomicWriteFailure::kOpen, AtomicWriteFailure::kWrite,
        AtomicWriteFailure::kRename}) {
    auto index = OpenSnapshot(dir);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    ASSERT_TRUE((*index)->Upsert(next_id++, "12 new street").ok());
    common::InjectAtomicWriteFailureForTest(mode, 1);
    Status s = (*index)->Seal();
    EXPECT_FALSE(s.ok()) << "mode " << static_cast<int>(mode);
    // Cleanup contract: no *.tmp stray, old manifest byte-identical.
    EXPECT_EQ(CountTempFiles(dir), 0u) << "mode " << static_cast<int>(mode);
    EXPECT_EQ(ReadFile(manifest_path), good_manifest)
        << "mode " << static_cast<int>(mode);
  }

  // The snapshot still opens after the failed writes (the upserts replay
  // from the WAL), and with the injection spent a seal succeeds.
  auto index = OpenSnapshot(dir);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->GetStats().live_docs, next_id);
  ASSERT_TRUE((*index)->Seal().ok());
  EXPECT_EQ(CountTempFiles(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotAtomicWriteTest, InjectedCountDecrements) {
  std::string dir = FreshDir("snapshot_atomic_count");
  ASSERT_TRUE(std::filesystem::create_directories(dir));
  std::string path = dir + "/file.bin";

  common::InjectAtomicWriteFailureForTest(common::AtomicWriteFailure::kWrite, 2);
  EXPECT_FALSE(common::WriteFileAtomic(path, "payload").ok());
  EXPECT_FALSE(common::WriteFileAtomic(path, "payload").ok());
  EXPECT_TRUE(common::WriteFileAtomic(path, "payload").ok());
  EXPECT_EQ(ReadFile(path), "payload");
  EXPECT_EQ(CountTempFiles(dir), 0u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ssjoin::index
