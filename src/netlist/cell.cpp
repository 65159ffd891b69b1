#include "netlist/cell.hpp"

#include <limits>
#include <string>

#include "support/check.hpp"
#include "support/strings.hpp"

namespace serelin {

std::string_view cell_type_name(CellType type) {
  switch (type) {
    case CellType::kInput:  return "INPUT";
    case CellType::kDff:    return "DFF";
    case CellType::kBuf:    return "BUFF";
    case CellType::kNot:    return "NOT";
    case CellType::kAnd:    return "AND";
    case CellType::kNand:   return "NAND";
    case CellType::kOr:     return "OR";
    case CellType::kNor:    return "NOR";
    case CellType::kXor:    return "XOR";
    case CellType::kXnor:   return "XNOR";
    case CellType::kConst0: return "CONST0";
    case CellType::kConst1: return "CONST1";
  }
  SERELIN_ASSERT(false, "unreachable cell type");
}

std::optional<CellType> try_parse_cell_type(std::string_view keyword) {
  const std::string up = to_upper(keyword);
  if (up == "INPUT") return CellType::kInput;
  if (up == "DFF") return CellType::kDff;
  if (up == "BUF" || up == "BUFF") return CellType::kBuf;
  if (up == "NOT" || up == "INV") return CellType::kNot;
  if (up == "AND") return CellType::kAnd;
  if (up == "NAND") return CellType::kNand;
  if (up == "OR") return CellType::kOr;
  if (up == "NOR") return CellType::kNor;
  if (up == "XOR") return CellType::kXor;
  if (up == "XNOR") return CellType::kXnor;
  if (up == "CONST0" || up == "GND") return CellType::kConst0;
  if (up == "CONST1" || up == "VDD") return CellType::kConst1;
  return std::nullopt;
}

CellType parse_cell_type(std::string_view keyword) {
  if (const auto t = try_parse_cell_type(keyword)) return *t;
  throw ParseError("unknown cell type keyword: " + std::string(keyword));
}

bool is_combinational_source(CellType type) {
  return type == CellType::kInput || type == CellType::kDff ||
         type == CellType::kConst0 || type == CellType::kConst1;
}

bool is_gate(CellType type) {
  switch (type) {
    case CellType::kBuf:
    case CellType::kNot:
    case CellType::kAnd:
    case CellType::kNand:
    case CellType::kOr:
    case CellType::kNor:
    case CellType::kXor:
    case CellType::kXnor:
      return true;
    default:
      return false;
  }
}

int min_fanins(CellType type) {
  switch (type) {
    case CellType::kInput:
    case CellType::kConst0:
    case CellType::kConst1:
      return 0;
    case CellType::kDff:
    case CellType::kBuf:
    case CellType::kNot:
      return 1;
    default:
      return 1;  // .bench files occasionally use 1-input AND/OR as buffers
  }
}

int max_fanins(CellType type) {
  switch (type) {
    case CellType::kInput:
    case CellType::kConst0:
    case CellType::kConst1:
      return 0;
    case CellType::kDff:
    case CellType::kBuf:
    case CellType::kNot:
      return 1;
    default:
      return std::numeric_limits<int>::max();
  }
}

std::uint64_t eval_cell(CellType type, std::span<const std::uint64_t> fanins) {
  switch (type) {
    case CellType::kConst0:
      return 0;
    case CellType::kConst1:
      return ~0ULL;
    case CellType::kInput:
      SERELIN_ASSERT(false, "eval_cell on a primary input (set by simulator)");
    case CellType::kDff:
    case CellType::kBuf:
      return fanins[0];
    case CellType::kNot:
      return ~fanins[0];
    case CellType::kAnd:
    case CellType::kNand: {
      std::uint64_t acc = ~0ULL;
      for (std::uint64_t w : fanins) acc &= w;
      return type == CellType::kAnd ? acc : ~acc;
    }
    case CellType::kOr:
    case CellType::kNor: {
      std::uint64_t acc = 0;
      for (std::uint64_t w : fanins) acc |= w;
      return type == CellType::kOr ? acc : ~acc;
    }
    case CellType::kXor:
    case CellType::kXnor: {
      std::uint64_t acc = 0;
      for (std::uint64_t w : fanins) acc ^= w;
      return type == CellType::kXor ? acc : ~acc;
    }
  }
  SERELIN_ASSERT(false, "unreachable cell type");
}

}  // namespace serelin
