// Versioned pipeline checkpoints (docs/ROBUSTNESS.md §11).
//
// A checkpoint file is a single atomic artifact (written through
// atomic_write_file, so it is always either absent, the previous complete
// snapshot, or the new complete snapshot):
//
//   "SRLCKPT\n"  8-byte magic
//   u32          format version (kCheckpointVersion)
//   str          kind ("pipeline")
//   u64          fingerprint — hash of the inputs the snapshot is only
//                valid for (circuit + pipeline options); a resume against
//                a different input is rejected, never silently wrong
//   u32          section count, then per section: str name, str blob
//   u32          CRC-32 of every preceding byte
//
// Sections are opaque named blobs; the owning layer (the flow pipeline,
// which writes the one "pipeline" section at each attempt's entry) encodes
// its state with BinWriter and decodes with BinReader, keeping support/
// free of solver types. Readers skip sections they do not know, so files
// that carry older engine sections still load. Integers are packed
// explicitly little-endian so a checkpoint is bit-stable across
// platforms — the resumed-equals-fresh contract is checked bitwise.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace serelin {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Little-endian binary packer for checkpoint sections.
class BinWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// u32 length followed by the raw bytes.
  void str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Little-endian binary unpacker; throws serelin::ParseError on underrun
/// (a truncated or mismatched section decodes loudly, never garbage).
class BinReader {
 public:
  explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  std::string str();

  bool done() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  std::size_t pos_ = 0;
};

/// One decoded (or to-be-encoded) checkpoint: header plus named sections.
struct CheckpointImage {
  std::uint32_t version = kCheckpointVersion;
  std::string kind;
  std::uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, std::string>> sections;

  /// First section named `name`, or nullptr.
  const std::string* find(std::string_view name) const;
};

/// Serializes an image to the on-disk format (magic..CRC).
std::string encode_checkpoint(const CheckpointImage& image);

/// Parses and validates (magic, version, CRC). Throws serelin::ParseError
/// on any damage — a checkpoint is either fully intact or rejected.
CheckpointImage decode_checkpoint(std::string_view bytes);

/// Atomically writes `image` to `path`. Throws serelin::Error on failure.
void save_checkpoint(const std::string& path, const CheckpointImage& image);

/// Loads `path` into `image`. Returns false when the file is missing;
/// throws serelin::ParseError when it exists but is damaged.
bool load_checkpoint(const std::string& path, CheckpointImage& image);

}  // namespace serelin
