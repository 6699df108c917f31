#include "ir/parser.hpp"

#include <cctype>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "ir/validate.hpp"
#include "linalg/gcd.hpp"
#include "util/parse.hpp"

namespace flo::ir {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string token;
  while (is >> token) out.push_back(token);
  return out;
}

std::int64_t parse_int(const std::string& s, std::size_t line) {
  try {
    std::size_t pos = 0;
    const std::int64_t v = std::stoll(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw ParseError(line, "expected an integer, got '" + s + "'");
  }
}

/// Parses one affine index expression (e.g. "2*i1+i3-4") into a row of the
/// access matrix plus an offset, given the nest depth.
void parse_index_expr(const std::string& expr, std::size_t depth,
                      std::size_t line, linalg::IntMatrix& q,
                      std::size_t row, std::int64_t& offset) {
  offset = 0;
  std::string body = strip(expr);
  if (body.empty()) throw ParseError(line, "empty index expression");
  // Tokenize into signed terms.
  std::size_t pos = 0;
  while (pos < body.size()) {
    std::int64_t sign = 1;
    while (pos < body.size() && (body[pos] == '+' || body[pos] == '-' ||
                                 std::isspace(static_cast<unsigned char>(
                                     body[pos])))) {
      if (body[pos] == '-') sign = -sign;
      ++pos;
    }
    if (pos >= body.size()) {
      throw ParseError(line, "dangling sign in '" + expr + "'");
    }
    std::size_t end = pos;
    while (end < body.size() && body[end] != '+' && body[end] != '-') ++end;
    std::string term = strip(body.substr(pos, end - pos));
    pos = end;
    if (term.empty()) throw ParseError(line, "empty term in '" + expr + "'");

    // term is `c*ik`, `ik`, or `c`.
    std::int64_t coeff = 1;
    std::string iter = term;
    const std::size_t star = term.find('*');
    if (star != std::string::npos) {
      coeff = parse_int(strip(term.substr(0, star)), line);
      iter = strip(term.substr(star + 1));
    }
    if (!iter.empty() && iter[0] == 'i') {
      const std::int64_t k = parse_int(iter.substr(1), line);
      if (k < 1 || static_cast<std::size_t>(k) > depth) {
        throw ParseError(line, "iterator '" + iter + "' out of range (nest depth " +
                                   std::to_string(depth) + ")");
      }
      try {
        q.at(row, static_cast<std::size_t>(k - 1)) =
            linalg::checked_add(q.at(row, static_cast<std::size_t>(k - 1)),
                                linalg::checked_mul(sign, coeff));
      } catch (const std::overflow_error&) {
        throw ParseError(line, "coefficient overflows in '" + expr + "'");
      }
    } else {
      if (star != std::string::npos) {
        throw ParseError(line, "constant term with '*' in '" + term + "'");
      }
      try {
        offset = linalg::checked_add(
            offset, linalg::checked_mul(sign, parse_int(iter, line)));
      } catch (const std::overflow_error&) {
        throw ParseError(line, "constant term overflows in '" + expr + "'");
      }
    }
  }
}

/// Parses `name[expr, expr, ...]` into a Reference.
Reference parse_reference(const Program& program, const std::string& body,
                          std::size_t depth, std::size_t line,
                          AccessKind kind) {
  const std::size_t open = body.find('[');
  const std::size_t close = body.rfind(']');
  if (open == std::string::npos || close == std::string::npos ||
      close < open) {
    throw ParseError(line, "expected name[indices] in '" + body + "'");
  }
  const std::string name = strip(body.substr(0, open));
  const auto id = program.find_array(name);
  if (!id) throw ParseError(line, "unknown array '" + name + "'");
  const std::size_t dims = program.array(*id).dims();

  const std::vector<std::string> exprs =
      util::split(std::string_view(body).substr(open + 1, close - open - 1),
                  ',');
  if (exprs.size() != dims) {
    throw ParseError(line, "array '" + name + "' has " +
                               std::to_string(dims) + " dims, got " +
                               std::to_string(exprs.size()) + " indices");
  }
  linalg::IntMatrix q(dims, depth);
  linalg::IntVector offset(dims, 0);
  for (std::size_t d = 0; d < dims; ++d) {
    parse_index_expr(exprs[d], depth, line, q, d, offset[d]);
  }
  return {*id, poly::AffineReference(std::move(q), std::move(offset)), kind};
}

std::optional<std::string> keyword_value(const std::string& token,
                                         const std::string& key) {
  if (token.rfind(key + "=", 0) == 0) return token.substr(key.size() + 1);
  return std::nullopt;
}

}  // namespace

Program parse_program(const std::string& text) {
  Program program;
  bool have_name = false;

  struct PendingNest {
    std::string name;
    std::size_t parallel = 0;
    std::int64_t repeat = 1;
    std::vector<poly::LoopBound> bounds;
    std::vector<std::pair<AccessKind, std::string>> refs;
    std::vector<std::size_t> ref_lines;
    std::size_t line = 0;
  };
  std::optional<PendingNest> nest;

  auto flush_nest = [&](std::size_t line) {
    if (!nest) return;
    if (nest->bounds.empty()) {
      throw ParseError(line, "nest '" + nest->name + "' has no loops");
    }
    if (nest->parallel >= nest->bounds.size()) {
      throw ParseError(nest->line, "parallel dimension out of range");
    }
    LoopNest loop(nest->name, poly::IterationSpace(nest->bounds),
                  nest->parallel, nest->repeat);
    for (std::size_t r = 0; r < nest->refs.size(); ++r) {
      loop.add_reference(parse_reference(program, nest->refs[r].second,
                                         nest->bounds.size(),
                                         nest->ref_lines[r],
                                         nest->refs[r].first));
    }
    program.add_nest(std::move(loop));
    nest.reset();
  };

  std::istringstream is(text);
  std::string raw;
  std::size_t line_no = 0;
  while (std::getline(is, raw)) {
    ++line_no;
    const std::size_t hash = raw.find('#');
    if (hash != std::string::npos) raw = raw.substr(0, hash);
    std::string line = strip(raw);
    if (line.empty()) continue;
    if (line == "}") {
      if (!nest) throw ParseError(line_no, "'}' without an open nest");
      flush_nest(line_no);
      continue;
    }
    const auto tokens = split_ws(line);
    const std::string& head = tokens[0];

    if (head == "program") {
      if (tokens.size() != 2) throw ParseError(line_no, "program <name>");
      program = Program(tokens[1]);
      have_name = true;
    } else if (head == "array") {
      if (nest) throw ParseError(line_no, "array inside a nest");
      if (tokens.size() < 3) {
        throw ParseError(line_no, "array <name> <extent>...");
      }
      std::vector<std::int64_t> extents;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        extents.push_back(parse_int(tokens[i], line_no));
      }
      try {
        ArrayDecl decl(tokens[1], poly::DataSpace(extents));
        (void)decl.byte_size();  // reject extents whose product overflows
        program.add_array(std::move(decl));
      } catch (const std::invalid_argument& err) {
        throw ParseError(line_no, err.what());
      } catch (const std::overflow_error&) {
        throw ParseError(line_no, "array byte size overflows");
      }
    } else if (head == "nest") {
      if (nest) throw ParseError(line_no, "nested 'nest' blocks");
      if (tokens.size() < 2 || tokens.back() != "{") {
        throw ParseError(line_no, "nest <name> [parallel=k] [repeat=r] {");
      }
      PendingNest pending;
      pending.name = tokens[1];
      pending.line = line_no;
      for (std::size_t i = 2; i + 1 < tokens.size(); ++i) {
        if (auto v = keyword_value(tokens[i], "parallel")) {
          const std::int64_t k = parse_int(*v, line_no);
          if (k < 1) throw ParseError(line_no, "parallel= is 1-based");
          pending.parallel = static_cast<std::size_t>(k - 1);
        } else if (auto r = keyword_value(tokens[i], "repeat")) {
          pending.repeat = parse_int(*r, line_no);
          // Downstream phase_repeat is a uint32; a zero/negative repeat
          // would silently wrap to ~2^32 phase repetitions.
          if (pending.repeat < 1) {
            throw ParseError(line_no, "repeat must be >= 1");
          }
        } else {
          throw ParseError(line_no, "unknown nest option '" + tokens[i] + "'");
        }
      }
      nest = std::move(pending);
    } else if (head == "for") {
      if (!nest) throw ParseError(line_no, "'for' outside a nest");
      // for iK = lo..hi
      if (tokens.size() != 4 || tokens[2] != "=") {
        throw ParseError(line_no, "for i<k> = <lo>..<hi>");
      }
      const std::string& range = tokens[3];
      const std::size_t dots = range.find("..");
      if (dots == std::string::npos) {
        throw ParseError(line_no, "range must be <lo>..<hi>");
      }
      poly::LoopBound bound;
      bound.lower = parse_int(range.substr(0, dots), line_no);
      bound.upper = parse_int(range.substr(dots + 2), line_no);
      if (bound.upper < bound.lower) {
        throw ParseError(line_no, "empty loop range");
      }
      try {
        // trip_count computes upper - lower + 1 unchecked; a range like
        // INT64_MIN..INT64_MAX would be signed-overflow UB downstream.
        (void)linalg::checked_add(
            linalg::checked_sub(bound.upper, bound.lower), 1);
      } catch (const std::overflow_error&) {
        throw ParseError(line_no, "loop range too large");
      }
      nest->bounds.push_back(bound);
    } else if (head == "read" || head == "write") {
      if (!nest) throw ParseError(line_no, "'" + head + "' outside a nest");
      const std::string body = strip(line.substr(head.size()));
      nest->refs.emplace_back(
          head == "read" ? AccessKind::kRead : AccessKind::kWrite, body);
      nest->ref_lines.push_back(line_no);
    } else {
      throw ParseError(line_no, "unknown directive '" + head + "'");
    }
  }
  if (nest) throw ParseError(line_no, "unterminated nest (missing '}')");
  if (!have_name) throw ParseError(line_no, "missing 'program' directive");

  std::vector<std::string> issues;
  try {
    issues = validate(program);
  } catch (const std::overflow_error& err) {
    // Corner evaluation or trip-count products on extreme-but-parseable
    // bounds; surface as a diagnostic instead of leaking the exception.
    throw ParseError(line_no, std::string("program too large: ") + err.what());
  }
  if (!issues.empty()) {
    std::string message = "program failed validation:";
    for (const auto& issue : issues) message += "\n  - " + issue;
    throw ParseError(line_no, message);
  }
  return program;
}

}  // namespace flo::ir
