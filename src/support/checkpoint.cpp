#include "support/checkpoint.hpp"

#include <fstream>
#include <iterator>

#include "support/atomic_io.hpp"
#include "support/check.hpp"

namespace serelin {

namespace {
constexpr char kMagic[8] = {'S', 'R', 'L', 'C', 'K', 'P', 'T', '\n'};
}  // namespace

void BinWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void BinWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.append(s.data(), s.size());
}

void BinReader::need(std::size_t n) const {
  if (bytes_.size() - pos_ < n)
    throw ParseError("checkpoint section truncated (needed " +
                     std::to_string(n) + " bytes at offset " +
                     std::to_string(pos_) + ")");
}

std::uint8_t BinReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint32_t BinReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_++]))
         << (8 * i);
  return v;
}

std::uint64_t BinReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_++]))
         << (8 * i);
  return v;
}

std::string BinReader::str() {
  const std::uint32_t n = u32();
  need(n);
  std::string s(bytes_.substr(pos_, n));
  pos_ += n;
  return s;
}

const std::string* CheckpointImage::find(std::string_view name) const {
  for (const auto& [n, blob] : sections)
    if (n == name) return &blob;
  return nullptr;
}

std::string encode_checkpoint(const CheckpointImage& image) {
  std::string out(kMagic, sizeof(kMagic));
  BinWriter body;
  body.u32(image.version);
  body.str(image.kind);
  body.u64(image.fingerprint);
  body.u32(static_cast<std::uint32_t>(image.sections.size()));
  for (const auto& [name, blob] : image.sections) {
    body.str(name);
    body.str(blob);
  }
  out += body.bytes();
  BinWriter tail;
  tail.u32(crc32(out));
  out += tail.bytes();
  return out;
}

CheckpointImage decode_checkpoint(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) + 4 ||
      bytes.substr(0, sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic)))
    throw ParseError("not a serelin checkpoint (bad magic)");
  const std::string_view covered = bytes.substr(0, bytes.size() - 4);
  BinReader crc_reader(bytes.substr(bytes.size() - 4));
  if (crc32(covered) != crc_reader.u32())
    throw ParseError("checkpoint CRC mismatch (file damaged or tampered)");
  BinReader r(covered.substr(sizeof(kMagic)));
  CheckpointImage image;
  image.version = r.u32();
  if (image.version > kCheckpointVersion)
    throw ParseError("checkpoint version " + std::to_string(image.version) +
                     " is newer than this binary supports (" +
                     std::to_string(kCheckpointVersion) + ")");
  image.kind = r.str();
  image.fingerprint = r.u64();
  const std::uint32_t count = r.u32();
  image.sections.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string name = r.str();
    std::string blob = r.str();
    image.sections.emplace_back(std::move(name), std::move(blob));
  }
  if (!r.done())
    throw ParseError("checkpoint carries trailing bytes past its sections");
  return image;
}

void save_checkpoint(const std::string& path, const CheckpointImage& image) {
  atomic_write_file(path, encode_checkpoint(image));
}

bool load_checkpoint(const std::string& path, CheckpointImage& image) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  image = decode_checkpoint(bytes);
  return true;
}

}  // namespace serelin
