// Cell (gate) types of the sequential gate-level netlist.
//
// The type set matches the ISCAS89 / ITC99 `.bench` vocabulary: primary
// inputs, D flip-flops, and the standard combinational gates. Word-parallel
// evaluation semantics live here too so the simulator, the netlist checker
// and the .bench round-trip all agree on one definition.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>

namespace serelin {

enum class CellType : std::uint8_t {
  kInput,   ///< primary input (no fanins)
  kDff,     ///< D flip-flop (one fanin: D; node value is Q)
  kBuf,     ///< buffer (1 fanin)
  kNot,     ///< inverter (1 fanin)
  kAnd,     ///< AND (>=1 fanins)
  kNand,    ///< NAND (>=1 fanins)
  kOr,      ///< OR (>=1 fanins)
  kNor,     ///< NOR (>=1 fanins)
  kXor,     ///< XOR / odd parity (>=1 fanins)
  kXnor,    ///< XNOR / even parity (>=1 fanins)
  kConst0,  ///< constant 0 (no fanins)
  kConst1,  ///< constant 1 (no fanins)
};

/// Number of distinct cell types (for table sizing).
inline constexpr int kNumCellTypes = 12;

/// Canonical .bench keyword for the type ("INPUT", "DFF", "NAND", ...).
std::string_view cell_type_name(CellType type);

/// Parses a .bench keyword (case-insensitive; accepts BUF and BUFF).
/// Throws ParseError on an unknown keyword.
CellType parse_cell_type(std::string_view keyword);

/// Non-throwing variant for the recovering parser: nullopt on an unknown
/// keyword.
std::optional<CellType> try_parse_cell_type(std::string_view keyword);

/// True for nodes that source a value into the combinational network of a
/// single clock cycle: primary inputs, flip-flop outputs and constants.
bool is_combinational_source(CellType type);

/// True for combinational logic gates (kBuf through kXnor). Inputs,
/// flip-flops and constants are not gates.
bool is_gate(CellType type);

/// Minimum/maximum legal fanin count for the type.
int min_fanins(CellType type);
int max_fanins(CellType type);

/// Word-parallel evaluation: computes 64 simulation patterns at once from
/// the fanin words. kDff evaluates as a wire (value = D); its sequential
/// behaviour is handled by the simulator's frame loop, which normally sets
/// flip-flop values directly from stored state instead of calling this.
std::uint64_t eval_cell(CellType type, std::span<const std::uint64_t> fanins);

}  // namespace serelin
