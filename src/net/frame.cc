#include "net/frame.h"

#include <cstring>

#include "serialize/binary_io.h"

namespace nnr::net {

std::string encode_frame(std::uint8_t opcode, std::string_view body) {
  serialize::detail::BufWriter w(kFrameMagic);
  w.put(kWireVersion);
  w.put(opcode);
  w.put_bytes(body.data(), body.size());
  const std::string payload = w.finish();
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::string frame;
  frame.reserve(sizeof(len) + payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(payload);
  return frame;
}

Frame decode_frame(std::string_view payload) {
  serialize::detail::BufReader r(payload, kFrameMagic, "<wire frame>");
  Frame frame;
  frame.version = r.get<std::uint8_t>();
  if (frame.version != kWireVersion) {
    throw serialize::CheckpointError(
        "wire version mismatch: got " + std::to_string(frame.version) +
        ", speak " + std::to_string(kWireVersion));
  }
  frame.opcode = r.get<std::uint8_t>();
  frame.body.resize(r.remaining());
  if (!frame.body.empty()) r.get_bytes(frame.body.data(), frame.body.size());
  return frame;
}

bool send_frame(Socket& sock, std::uint8_t opcode, std::string_view body) {
  const std::string frame = encode_frame(opcode, body);
  return sock.send_all(frame.data(), frame.size()) == IoStatus::kOk;
}

RecvFrameResult recv_frame_ex(Socket& sock) {
  RecvFrameResult result;
  std::uint32_t len = 0;
  std::size_t got = 0;
  switch (sock.recv_exact(&len, sizeof(len), &got)) {
    case IoStatus::kOk:
      break;
    case IoStatus::kTimeout:
      // Only a timeout that consumed nothing is on a frame boundary; one
      // that split the length prefix leaves the stream unreadable.
      result.status = got == 0 ? RecvStatus::kTimeout : RecvStatus::kError;
      return result;
    case IoStatus::kClosed:
      result.status = got == 0 ? RecvStatus::kClosed : RecvStatus::kError;
      return result;
    case IoStatus::kError:
      result.status = RecvStatus::kError;
      return result;
  }
  // Minimum payload: magic + version + opcode + trailer.
  if (len < kFrameMagic.size() + 2 + sizeof(std::uint64_t) ||
      len > kMaxFrameBytes) {
    result.status = RecvStatus::kError;
    return result;
  }
  std::string payload(len, '\0');
  if (sock.recv_exact(payload.data(), payload.size()) != IoStatus::kOk) {
    // Mid-frame timeout, EOF, or error: the length prefix was consumed, so
    // no retry can realign the stream.
    result.status = RecvStatus::kError;
    return result;
  }
  result.frame = decode_frame(payload);
  result.status = RecvStatus::kFrame;
  return result;
}

}  // namespace nnr::net
