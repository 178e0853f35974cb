#ifndef SPHERE_NET_PACKET_H_
#define SPHERE_NET_PACKET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/value.h"
#include "engine/result_set.h"

namespace sphere::net {

/// Wire message types of the simulated database protocol (a simplified
/// MySQL-protocol stand-in: command packets client->server, OK / error /
/// result-set packets back).
enum class PacketType : uint8_t {
  kQuery = 1,        ///< COM_QUERY: sql text + bound parameters
  kBegin = 2,        ///< begin transaction (payload: optional xid)
  kCommit = 3,
  kRollback = 4,
  kPrepareXa = 5,          ///< XA phase-1 on the connection's transaction
  kCommitPrepared = 6,     ///< XA phase-2 commit (payload: xid)
  kRollbackPrepared = 7,   ///< XA phase-2 rollback (payload: xid)
  kOk = 16,          ///< affected rows + last insert id
  kResultSet = 17,   ///< column names + row data
  kError = 18,       ///< status code + message
};

/// Append-only little-endian byte writer.
class PacketWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);
  void WriteString(std::string_view s);  ///< u32 length + bytes
  void WriteValue(const Value& v);

  const std::string& buffer() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

/// Sequential reader with bounds checking.
class PacketReader {
 public:
  explicit PacketReader(std::string_view data) : data_(data) {}

  Result<uint8_t> ReadU8();
  Result<uint16_t> ReadU16();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<std::string> ReadString();
  Result<Value> ReadValue();

  bool AtEnd() const { return pos_ >= data_.size(); }

 private:
  Status Need(size_t n) const;
  std::string_view data_;
  size_t pos_ = 0;
};

// --- Request encoding -------------------------------------------------------

/// Encodes a COM_QUERY with bound parameters.
std::string EncodeQuery(std::string_view sql_text,
                        const std::vector<Value>& params);
/// Encodes a command packet whose only payload is `arg` (xid etc.).
std::string EncodeCommand(PacketType type, std::string_view arg = "");

struct DecodedRequest {
  PacketType type;
  std::string sql;            ///< kQuery
  std::vector<Value> params;  ///< kQuery
  std::string arg;            ///< xid for transaction verbs
};
Result<DecodedRequest> DecodeRequest(std::string_view data);

// --- Response encoding ------------------------------------------------------

/// Serializes an ExecResult (drains the cursor of a query result).
std::string EncodeExecResult(engine::ExecResult* result);
/// Serializes an error status.
std::string EncodeError(const Status& status);
/// Decodes a response into an ExecResult (materialized) or error status.
Result<engine::ExecResult> DecodeResponse(std::string_view data);

// --- Size mirrors (in-process pass-through) ---------------------------------
//
// The in-process wire skips the encode/decode round-trip but must keep
// the latency model honest, so it charges the exact byte count the encoders
// would have produced. Each mirror is kept in lockstep with its encoder; the
// packet unit tests assert `Encode*(x).size() == Encoded*Size(x)`.

/// Exact size of PacketWriter::WriteValue(v)'s output.
size_t EncodedValueSize(const Value& v);
/// Exact size of EncodeQuery(sql_text, params).
size_t EncodedQuerySize(std::string_view sql_text,
                        const std::vector<Value>& params);
/// Exact size of EncodeError(status).
size_t EncodedErrorSize(const Status& status);
/// Exact size of EncodeExecResult(result) — without draining the cursor.
/// Returns nullopt for a query result that is not materialized (the caller
/// must fall back to the real encode path).
std::optional<size_t> TryEncodedExecResultSize(
    const engine::ExecResult& result);

}  // namespace sphere::net

#endif  // SPHERE_NET_PACKET_H_
