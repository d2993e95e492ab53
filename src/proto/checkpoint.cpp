#include "proto/checkpoint.h"

namespace flexran::proto {

std::vector<std::uint8_t> MasterCheckpoint::encode() const {
  WireEncoder enc;
  Fields::encode(enc, *this);
  return enc.take();
}

util::Result<MasterCheckpoint> MasterCheckpoint::decode(std::span<const std::uint8_t> data) {
  MasterCheckpoint out;
  WireDecoder dec(data);
  const std::uint32_t seen = Fields::decode(dec, out);
  if (!dec.ok()) return dec.status().error();
  if ((seen & Fields::bit<&MasterCheckpoint::version>) == 0) {
    return util::Error::decode_failure("checkpoint missing version");
  }
  if (out.version != kVersion) {
    return util::Error::unsupported("checkpoint version " + std::to_string(out.version) +
                                    " (expected " + std::to_string(kVersion) + ")");
  }
  return out;
}

}  // namespace flexran::proto
