#include "service/protocol.hpp"

#include <cmath>
#include <cstdlib>
#include <optional>
#include <sstream>

#include "util/parse.hpp"

namespace flo::service {

namespace {

/// Strict full-string parse of a non-negative integer.
std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  if (value.empty()) throw ProtocolError(key + ": empty value");
  const std::optional<std::uint64_t> v = util::parse_decimal_u64(value);
  if (!v) throw ProtocolError(key + ": malformed integer '" + value + "'");
  return *v;
}

/// Strict full-string parse of a finite non-negative double.
double parse_ms(const std::string& key, const std::string& value) {
  if (value.empty()) throw ProtocolError(key + ": empty value");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(value.c_str(), &end);
  if (errno != 0 || end != value.c_str() + value.size() || !std::isfinite(v) ||
      v < 0) {
    throw ProtocolError(key + ": malformed number '" + value + "'");
  }
  return v;
}

/// Splits `payload` at the first blank line into header lines and body.
/// Calls `field(key, value)` per header line.
template <typename FieldFn>
std::string split_payload(const std::string& payload,
                          const char* expected_magic, std::string& magic_rest,
                          const FieldFn& field) {
  std::istringstream in(payload);
  std::string line;
  if (!std::getline(in, line)) throw ProtocolError("empty payload");
  std::istringstream magic_line(line);
  std::string magic;
  magic_line >> magic;
  if (magic != expected_magic) {
    throw ProtocolError("bad magic '" + line + "' (expected " +
                        expected_magic + ")");
  }
  std::getline(magic_line >> std::ws, magic_rest);
  while (std::getline(in, line)) {
    if (line.empty()) break;  // header/body separator
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos || colon == 0) {
      throw ProtocolError("malformed header line '" + line + "'");
    }
    field(line.substr(0, colon), line.substr(colon + 2));
  }
  std::string body;
  std::getline(in, body, '\0');
  return body;
}

}  // namespace

const char* status_name(Status status) {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kShed: return "shed";
    case Status::kThrottled: return "throttled";
    case Status::kError: return "error";
  }
  return "error";
}

const char* tier_name(Tier tier) {
  switch (tier) {
    case Tier::kAuto: return "auto";
    case Tier::kExact: return "exact";
    case Tier::kTemplate: return "template";
  }
  return "auto";
}

const char* mask_name(Mask mask) {
  switch (mask) {
    case Mask::kBoth: return "both";
    case Mask::kIo: return "io";
    case Mask::kStorage: return "storage";
  }
  return "both";
}

void validate_tenant(const std::string& tenant) {
  if (tenant.empty() || tenant.size() > 64) {
    throw ProtocolError("tenant: must be 1..64 characters");
  }
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      throw ProtocolError("tenant: invalid character in '" + tenant + "'");
    }
  }
}

std::string serialize_request(const Request& request) {
  std::ostringstream out;
  out << kRequestMagic << '\n';
  out << "id: " << request.id << '\n';
  out << "tenant: " << request.tenant << '\n';
  if (request.deadline_ms > 0) {
    out << "deadline_ms: " << request.deadline_ms << '\n';
  }
  out << "tier: " << tier_name(request.tier) << '\n';
  out << "threads: " << request.threads << '\n';
  out << "mask: " << mask_name(request.mask) << '\n';
  if (request.cache_scale != 1.0) {
    out << "cache_scale: " << request.cache_scale << '\n';
  }
  out << '\n' << request.program;
  return out.str();
}

Request parse_request(const std::string& payload) {
  Request request;
  std::string magic_rest;
  request.program = split_payload(
      payload, kRequestMagic, magic_rest,
      [&](const std::string& key, const std::string& value) {
        if (key == "id") {
          request.id = parse_u64(key, value);
        } else if (key == "tenant") {
          request.tenant = value;
        } else if (key == "deadline_ms") {
          request.deadline_ms = parse_ms(key, value);
        } else if (key == "tier") {
          if (value == "auto") request.tier = Tier::kAuto;
          else if (value == "exact") request.tier = Tier::kExact;
          else if (value == "template") request.tier = Tier::kTemplate;
          else throw ProtocolError("tier: unknown tier '" + value + "'");
        } else if (key == "threads") {
          const std::uint64_t v = parse_u64(key, value);
          if (v == 0 || v > 4096) {
            throw ProtocolError("threads: out of range '" + value + "'");
          }
          request.threads = static_cast<std::size_t>(v);
        } else if (key == "mask") {
          if (value == "both") request.mask = Mask::kBoth;
          else if (value == "io") request.mask = Mask::kIo;
          else if (value == "storage") request.mask = Mask::kStorage;
          else throw ProtocolError("mask: unknown mask '" + value + "'");
        } else if (key == "cache_scale") {
          const double v = parse_ms(key, value);
          if (v <= 0 || v > 1024) {
            throw ProtocolError("cache_scale: out of range '" + value + "'");
          }
          request.cache_scale = v;
        } else {
          throw ProtocolError("unknown header '" + key + "'");
        }
      });
  if (!magic_rest.empty()) {
    throw ProtocolError("trailing tokens after request magic");
  }
  validate_tenant(request.tenant);
  if (request.program.empty()) throw ProtocolError("empty program body");
  return request;
}

std::string serialize_response(const Response& response) {
  std::ostringstream out;
  out << kResponseMagic << ' ' << status_name(response.status) << '\n';
  out << "id: " << response.id << '\n';
  if (!response.tenant.empty()) out << "tenant: " << response.tenant << '\n';
  if (!response.tier.empty()) out << "tier: " << response.tier << '\n';
  if (!response.cache.empty()) out << "cache: " << response.cache << '\n';
  if (!response.solver.empty()) out << "solver: " << response.solver << '\n';
  if (!response.sched.empty()) out << "sched: " << response.sched << '\n';
  if (response.degraded) out << "degraded: 1\n";
  if (!response.fingerprint.empty()) {
    out << "fingerprint: " << response.fingerprint << '\n';
  }
  if (!response.body_hash.empty()) {
    out << "body_hash: " << response.body_hash << '\n';
  }
  if (response.retry_after_ms > 0) {
    out << "retry_after_ms: " << response.retry_after_ms << '\n';
  }
  if (!response.error.empty()) {
    // The error text rides in a header line; strip line breaks so it
    // cannot forge additional headers or a body.
    std::string flat = response.error;
    for (char& c : flat) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    out << "error: " << flat << '\n';
  }
  out << '\n' << response.body;
  return out.str();
}

Response parse_response(const std::string& payload) {
  Response response;
  std::string status;
  response.body = split_payload(
      payload, kResponseMagic, status,
      [&](const std::string& key, const std::string& value) {
        if (key == "id") response.id = parse_u64(key, value);
        else if (key == "tenant") response.tenant = value;
        else if (key == "tier") response.tier = value;
        else if (key == "cache") response.cache = value;
        else if (key == "solver") response.solver = value;
        else if (key == "sched") response.sched = value;
        else if (key == "degraded") response.degraded = value == "1";
        else if (key == "fingerprint") response.fingerprint = value;
        else if (key == "body_hash") response.body_hash = value;
        else if (key == "retry_after_ms")
          response.retry_after_ms = parse_ms(key, value);
        else if (key == "error") response.error = value;
        else throw ProtocolError("unknown header '" + key + "'");
      });
  if (status == "ok") response.status = Status::kOk;
  else if (status == "shed") response.status = Status::kShed;
  else if (status == "throttled") response.status = Status::kThrottled;
  else if (status == "error") response.status = Status::kError;
  else throw ProtocolError("unknown status '" + status + "'");
  return response;
}

}  // namespace flo::service
