#include "workloads/chess.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>

namespace rattrap::workloads::chess {
namespace {

constexpr bool off_board(Square sq) { return (sq & 0x88) != 0; }
constexpr Square make_square(int file, int rank) {
  return static_cast<Square>(rank * 16 + file);
}
constexpr int file_of(Square sq) { return sq & 7; }
constexpr int rank_of(Square sq) { return sq >> 4; }

// Direction deltas in 0x88 coordinates.
constexpr std::array<int, 8> kKnightDeltas = {-33, -31, -18, -14,
                                              14,  18,  31,  33};
constexpr std::array<int, 8> kKingDeltas = {-17, -16, -15, -1, 1, 15, 16, 17};
constexpr std::array<int, 4> kBishopDeltas = {-17, -15, 15, 17};
constexpr std::array<int, 4> kRookDeltas = {-16, -1, 1, 16};

constexpr std::array<int, 7> kPieceValue = {0, 100, 320, 330, 500, 900, 20000};

// Piece-square table for pawns/knights (white perspective); others use a
// centralization bonus. Compact tables keep the evaluation real without
// pages of constants.
constexpr std::array<int, 64> kPawnPst = {
    0,  0,  0,  0,  0,  0,  0,  0,   //
    50, 50, 50, 50, 50, 50, 50, 50,  //
    10, 10, 20, 30, 30, 20, 10, 10,  //
    5,  5,  10, 25, 25, 10, 5,  5,   //
    0,  0,  0,  20, 20, 0,  0,  0,   //
    5,  -5, -10, 0, 0, -10, -5, 5,   //
    5,  10, 10, -20, -20, 10, 10, 5, //
    0,  0,  0,  0,  0,  0,  0,  0};

constexpr std::array<int, 64> kKnightPst = {
    -50, -40, -30, -30, -30, -30, -40, -50,  //
    -40, -20, 0,   0,   0,   0,   -20, -40,  //
    -30, 0,   10,  15,  15,  10,  0,   -30,  //
    -30, 5,   15,  20,  20,  15,  5,   -30,  //
    -30, 0,   15,  20,  20,  15,  0,   -30,  //
    -30, 5,   10,  15,  15,  10,  5,   -30,  //
    -40, -20, 0,   5,   5,   0,   -20, -40,  //
    -50, -40, -30, -30, -30, -30, -40, -50};

// Maps a 0x88 square to a 0..63 index from white's perspective (rank 7 at
// index 0 row, as the PSTs above are written top-down).
int pst_index(Square sq, int side) {
  const int file = file_of(sq);
  int rank = rank_of(sq);
  if (side > 0) rank = 7 - rank;  // white: rank 7 is the top row
  return rank * 8 + file;
}

// Zobrist keys, generated deterministically once.
struct ZobristTable {
  // [piece+6][square 0..127]; piece index 0..12 (6 = empty unused).
  std::array<std::array<std::uint64_t, 128>, 13> piece;
  std::uint64_t side;
  std::array<std::uint64_t, 16> castle;
  std::array<std::uint64_t, 128> ep;

  ZobristTable() {
    sim::Rng rng(0x5eedba5eULL);
    for (auto& row : piece) {
      for (auto& v : row) v = rng();
    }
    side = rng();
    for (auto& v : castle) v = rng();
    for (auto& v : ep) v = rng();
  }
};

const ZobristTable& zobrist() {
  static const ZobristTable table;
  return table;
}

int mvv_lva_score(const Board& board, const Move& move) {
  const int victim =
      move.is_en_passant ? kPawn : std::abs(board.piece_at(move.to));
  const int attacker = std::abs(board.piece_at(move.from));
  if (victim == kEmpty && move.promotion == 0) return 0;
  return 10 * kPieceValue[victim] - kPieceValue[attacker] +
         (move.promotion != 0 ? kPieceValue[move.promotion] : 0);
}

constexpr int kMateScore = 100000;

std::uint64_t g_nodes = 0;  // search() resets; single-threaded engine

int quiescence(Board& board, int alpha, int beta) {
  ++g_nodes;
  const int stand_pat = board.evaluate();
  if (stand_pat >= beta) return beta;
  alpha = std::max(alpha, stand_pat);

  std::vector<Move> moves;
  board.pseudo_moves(moves, /*captures_only=*/true);
  std::sort(moves.begin(), moves.end(), [&](const Move& a, const Move& b) {
    return mvv_lva_score(board, a) > mvv_lva_score(board, b);
  });
  for (const Move& move : moves) {
    const Board::Undo undo = board.make_move(move);
    if (board.in_check(-board.side())) {  // mover left own king in check
      board.unmake_move(undo);
      continue;
    }
    const int score = -quiescence(board, -beta, -alpha);
    board.unmake_move(undo);
    if (score >= beta) return beta;
    alpha = std::max(alpha, score);
  }
  return alpha;
}

int negamax(Board& board, int depth, int alpha, int beta, Move* best_out) {
  if (depth == 0) return quiescence(board, alpha, beta);
  ++g_nodes;

  std::vector<Move> moves;
  board.pseudo_moves(moves);
  std::sort(moves.begin(), moves.end(), [&](const Move& a, const Move& b) {
    return mvv_lva_score(board, a) > mvv_lva_score(board, b);
  });

  bool any_legal = false;
  for (const Move& move : moves) {
    const Board::Undo undo = board.make_move(move);
    if (board.in_check(-board.side())) {
      board.unmake_move(undo);
      continue;
    }
    any_legal = true;
    const int score = -negamax(board, depth - 1, -beta, -alpha, nullptr);
    board.unmake_move(undo);
    if (score > alpha) {
      alpha = score;
      if (best_out != nullptr) *best_out = move;
    }
    if (alpha >= beta) break;
  }
  if (!any_legal) {
    // Checkmate or stalemate.
    return board.in_check(board.side()) ? -kMateScore + (100 - depth) : 0;
  }
  return alpha;
}

}  // namespace

Board::Board() {
  squares_.fill(kEmpty);
  constexpr std::array<std::int8_t, 8> kBackRank = {
      kRook, kKnight, kBishop, kQueen, kKing, kBishop, kKnight, kRook};
  for (int file = 0; file < 8; ++file) {
    squares_[make_square(file, 0)] = kBackRank[file];
    squares_[make_square(file, 1)] = kPawn;
    squares_[make_square(file, 6)] = static_cast<std::int8_t>(-kPawn);
    squares_[make_square(file, 7)] =
        static_cast<std::int8_t>(-kBackRank[file]);
  }
}

Square Board::king_square(int side) const {
  const std::int8_t target =
      static_cast<std::int8_t>(side > 0 ? kKing : -kKing);
  for (Square sq = 0; sq < 128; ++sq) {
    if (!off_board(sq) && squares_[sq] == target) return sq;
  }
  return kInvalidSquare;
}

bool Board::square_attacked(Square sq, int by_side) const {
  // Pawns.
  const int pawn_dir = by_side > 0 ? 16 : -16;
  for (const int df : {-1, 1}) {
    const Square from = static_cast<Square>(sq - pawn_dir + df);
    if (!off_board(from) &&
        squares_[from] == static_cast<std::int8_t>(by_side * kPawn)) {
      return true;
    }
  }
  // Knights.
  for (const int d : kKnightDeltas) {
    const Square from = static_cast<Square>(sq + d);
    if (!off_board(from) &&
        squares_[from] == static_cast<std::int8_t>(by_side * kKnight)) {
      return true;
    }
  }
  // Kings.
  for (const int d : kKingDeltas) {
    const Square from = static_cast<Square>(sq + d);
    if (!off_board(from) &&
        squares_[from] == static_cast<std::int8_t>(by_side * kKing)) {
      return true;
    }
  }
  // Sliders.
  for (const int d : kBishopDeltas) {
    Square from = static_cast<Square>(sq + d);
    while (!off_board(from)) {
      const std::int8_t piece = squares_[from];
      if (piece != kEmpty) {
        if (piece == static_cast<std::int8_t>(by_side * kBishop) ||
            piece == static_cast<std::int8_t>(by_side * kQueen)) {
          return true;
        }
        break;
      }
      from = static_cast<Square>(from + d);
    }
  }
  for (const int d : kRookDeltas) {
    Square from = static_cast<Square>(sq + d);
    while (!off_board(from)) {
      const std::int8_t piece = squares_[from];
      if (piece != kEmpty) {
        if (piece == static_cast<std::int8_t>(by_side * kRook) ||
            piece == static_cast<std::int8_t>(by_side * kQueen)) {
          return true;
        }
        break;
      }
      from = static_cast<Square>(from + d);
    }
  }
  return false;
}

bool Board::in_check(int side) const {
  const Square king = king_square(side);
  return king != kInvalidSquare && square_attacked(king, -side);
}

void Board::generate_pawn_moves(std::vector<Move>& out, Square from,
                                bool captures_only) const {
  const int dir = side_ > 0 ? 16 : -16;
  const int start_rank = side_ > 0 ? 1 : 6;
  const int promo_rank = side_ > 0 ? 7 : 0;

  auto push_move = [&](Square to, bool en_passant) {
    if (rank_of(to) == promo_rank) {
      for (const std::int8_t promo : {kQueen, kRook, kBishop, kKnight}) {
        out.push_back(Move{from, to, promo, false, false});
      }
    } else {
      out.push_back(Move{from, to, 0, en_passant, false});
    }
  };

  // Captures (including en passant).
  for (const int df : {-1, 1}) {
    const Square to = static_cast<Square>(from + dir + df);
    if (off_board(to)) continue;
    const std::int8_t target = squares_[to];
    if (target != kEmpty && (target > 0) != (side_ > 0)) {
      push_move(to, false);
    } else if (to == en_passant_ && target == kEmpty) {
      push_move(to, true);
    }
  }
  if (captures_only) return;

  // Single and double pushes.
  const Square one = static_cast<Square>(from + dir);
  if (!off_board(one) && squares_[one] == kEmpty) {
    push_move(one, false);
    if (rank_of(from) == start_rank) {
      const Square two = static_cast<Square>(from + 2 * dir);
      if (squares_[two] == kEmpty) {
        out.push_back(Move{from, two, 0, false, false});
      }
    }
  }
}

void Board::generate_piece_moves(std::vector<Move>& out, Square from,
                                 bool captures_only) const {
  const int piece = std::abs(squares_[from]);
  auto try_to = [&](Square to) -> bool {
    // Returns true when the ray may continue past `to`.
    if (off_board(to)) return false;
    const std::int8_t target = squares_[to];
    if (target == kEmpty) {
      if (!captures_only) out.push_back(Move{from, to, 0, false, false});
      return true;
    }
    if ((target > 0) != (side_ > 0)) {
      out.push_back(Move{from, to, 0, false, false});
    }
    return false;
  };

  switch (piece) {
    case kKnight:
      for (const int d : kKnightDeltas) {
        try_to(static_cast<Square>(from + d));
      }
      break;
    case kKing:
      for (const int d : kKingDeltas) {
        try_to(static_cast<Square>(from + d));
      }
      break;
    case kBishop:
      for (const int d : kBishopDeltas) {
        Square to = static_cast<Square>(from + d);
        while (try_to(to)) to = static_cast<Square>(to + d);
      }
      break;
    case kRook:
      for (const int d : kRookDeltas) {
        Square to = static_cast<Square>(from + d);
        while (try_to(to)) to = static_cast<Square>(to + d);
      }
      break;
    case kQueen:
      for (const int d : kBishopDeltas) {
        Square to = static_cast<Square>(from + d);
        while (try_to(to)) to = static_cast<Square>(to + d);
      }
      for (const int d : kRookDeltas) {
        Square to = static_cast<Square>(from + d);
        while (try_to(to)) to = static_cast<Square>(to + d);
      }
      break;
    default:
      break;
  }
}

void Board::generate_castles(std::vector<Move>& out) const {
  const int rank = side_ > 0 ? 0 : 7;
  const Square king_from = make_square(4, rank);
  if (squares_[king_from] != static_cast<std::int8_t>(side_ * kKing)) return;
  if (in_check(side_)) return;

  const std::uint8_t king_side =
      side_ > 0 ? kWhiteKingSide : kBlackKingSide;
  const std::uint8_t queen_side =
      side_ > 0 ? kWhiteQueenSide : kBlackQueenSide;

  if ((castle_rights_ & king_side) != 0) {
    const Square f1 = make_square(5, rank);
    const Square g1 = make_square(6, rank);
    const Square rook = make_square(7, rank);
    if (squares_[f1] == kEmpty && squares_[g1] == kEmpty &&
        squares_[rook] == static_cast<std::int8_t>(side_ * kRook) &&
        !square_attacked(f1, -side_) && !square_attacked(g1, -side_)) {
      out.push_back(Move{king_from, g1, 0, false, true});
    }
  }
  if ((castle_rights_ & queen_side) != 0) {
    const Square d1 = make_square(3, rank);
    const Square c1 = make_square(2, rank);
    const Square b1 = make_square(1, rank);
    const Square rook = make_square(0, rank);
    if (squares_[d1] == kEmpty && squares_[c1] == kEmpty &&
        squares_[b1] == kEmpty &&
        squares_[rook] == static_cast<std::int8_t>(side_ * kRook) &&
        !square_attacked(d1, -side_) && !square_attacked(c1, -side_)) {
      out.push_back(Move{king_from, c1, 0, false, true});
    }
  }
}

void Board::pseudo_moves(std::vector<Move>& out, bool captures_only) const {
  for (Square sq = 0; sq < 128; ++sq) {
    if (off_board(sq)) continue;
    const std::int8_t piece = squares_[sq];
    if (piece == kEmpty || (piece > 0) != (side_ > 0)) continue;
    if (std::abs(piece) == kPawn) {
      generate_pawn_moves(out, sq, captures_only);
    } else {
      generate_piece_moves(out, sq, captures_only);
    }
  }
  if (!captures_only) generate_castles(out);
}

std::vector<Move> Board::legal_moves() const {
  std::vector<Move> pseudo;
  pseudo_moves(pseudo);
  std::vector<Move> legal;
  legal.reserve(pseudo.size());
  Board copy = *this;
  for (const Move& move : pseudo) {
    const Undo undo = copy.make_move(move);
    if (!copy.in_check(-copy.side())) legal.push_back(move);
    copy.unmake_move(undo);
  }
  return legal;
}

Board::Undo Board::make_move(const Move& move) {
  Undo undo;
  undo.move = move;
  undo.castle_rights = castle_rights_;
  undo.en_passant = en_passant_;
  undo.halfmove_clock = halfmove_clock_;
  undo.captured = squares_[move.to];

  const std::int8_t piece = squares_[move.from];
  squares_[move.from] = kEmpty;
  squares_[move.to] =
      move.promotion != 0
          ? static_cast<std::int8_t>(side_ * move.promotion)
          : piece;

  if (move.is_en_passant) {
    const Square victim = static_cast<Square>(move.to - (side_ > 0 ? 16 : -16));
    undo.captured = squares_[victim];
    squares_[victim] = kEmpty;
  }
  if (move.is_castle) {
    const int rank = side_ > 0 ? 0 : 7;
    if (file_of(move.to) == 6) {  // king side: rook h -> f
      squares_[make_square(5, rank)] = squares_[make_square(7, rank)];
      squares_[make_square(7, rank)] = kEmpty;
    } else {  // queen side: rook a -> d
      squares_[make_square(3, rank)] = squares_[make_square(0, rank)];
      squares_[make_square(0, rank)] = kEmpty;
    }
  }

  // Castling-rights updates: king or rook moved / rook captured.
  auto clear_rights_for = [&](Square sq) {
    if (sq == make_square(4, 0)) {
      castle_rights_ &= static_cast<std::uint8_t>(
          ~(kWhiteKingSide | kWhiteQueenSide));
    } else if (sq == make_square(4, 7)) {
      castle_rights_ &= static_cast<std::uint8_t>(
          ~(kBlackKingSide | kBlackQueenSide));
    } else if (sq == make_square(0, 0)) {
      castle_rights_ &= static_cast<std::uint8_t>(~kWhiteQueenSide);
    } else if (sq == make_square(7, 0)) {
      castle_rights_ &= static_cast<std::uint8_t>(~kWhiteKingSide);
    } else if (sq == make_square(0, 7)) {
      castle_rights_ &= static_cast<std::uint8_t>(~kBlackQueenSide);
    } else if (sq == make_square(7, 7)) {
      castle_rights_ &= static_cast<std::uint8_t>(~kBlackKingSide);
    }
  };
  clear_rights_for(move.from);
  clear_rights_for(move.to);

  // En passant target.
  en_passant_ = kInvalidSquare;
  if (std::abs(piece) == kPawn &&
      std::abs(rank_of(move.to) - rank_of(move.from)) == 2) {
    en_passant_ = static_cast<Square>((move.from + move.to) / 2);
  }

  halfmove_clock_ =
      (std::abs(piece) == kPawn || undo.captured != kEmpty)
          ? 0
          : halfmove_clock_ + 1;
  side_ = -side_;
  return undo;
}

void Board::unmake_move(const Undo& undo) {
  side_ = -side_;
  const Move& move = undo.move;
  std::int8_t piece = squares_[move.to];
  if (move.promotion != 0) {
    piece = static_cast<std::int8_t>(side_ * kPawn);
  }
  squares_[move.from] = piece;
  squares_[move.to] = kEmpty;

  if (move.is_en_passant) {
    const Square victim =
        static_cast<Square>(move.to - (side_ > 0 ? 16 : -16));
    squares_[victim] = undo.captured;
  } else {
    squares_[move.to] = undo.captured;
  }
  if (move.is_castle) {
    const int rank = side_ > 0 ? 0 : 7;
    if (file_of(move.to) == 6) {
      squares_[make_square(7, rank)] = squares_[make_square(5, rank)];
      squares_[make_square(5, rank)] = kEmpty;
    } else {
      squares_[make_square(0, rank)] = squares_[make_square(3, rank)];
      squares_[make_square(3, rank)] = kEmpty;
    }
  }
  castle_rights_ = undo.castle_rights;
  en_passant_ = undo.en_passant;
  halfmove_clock_ = undo.halfmove_clock;
}

int Board::evaluate() const {
  int score = 0;
  for (Square sq = 0; sq < 128; ++sq) {
    if (off_board(sq)) continue;
    const std::int8_t piece = squares_[sq];
    if (piece == kEmpty) continue;
    const int side = piece > 0 ? 1 : -1;
    const int kind = std::abs(piece);
    int value = kPieceValue[kind];
    const int idx = pst_index(sq, side);
    if (kind == kPawn) {
      value += kPawnPst[idx];
    } else if (kind == kKnight) {
      value += kKnightPst[idx];
    } else if (kind == kBishop || kind == kQueen) {
      // Centralization bonus.
      const int cf = std::abs(2 * file_of(sq) - 7);
      const int cr = std::abs(2 * rank_of(sq) - 7);
      value += (14 - cf - cr);
    }
    score += side * value;
  }
  return side_ * score;
}

std::uint64_t Board::hash() const {
  const ZobristTable& z = zobrist();
  std::uint64_t h = 0;
  for (Square sq = 0; sq < 128; ++sq) {
    if (off_board(sq)) continue;
    const std::int8_t piece = squares_[sq];
    if (piece == kEmpty) continue;
    h ^= z.piece[static_cast<std::size_t>(piece + 6)][sq];
  }
  if (side_ < 0) h ^= z.side;
  h ^= z.castle[castle_rights_];
  if (en_passant_ != kInvalidSquare) h ^= z.ep[en_passant_];
  return h;
}

void Board::randomize(sim::Rng& rng, int n) {
  for (int i = 0; i < n; ++i) {
    const std::vector<Move> moves = legal_moves();
    if (moves.empty()) return;
    const auto idx = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(moves.size()) - 1));
    make_move(moves[idx]);
  }
}

std::string Board::to_fen_board() const {
  std::string fen;
  for (int rank = 7; rank >= 0; --rank) {
    int empties = 0;
    for (int file = 0; file < 8; ++file) {
      const std::int8_t piece = squares_[make_square(file, rank)];
      if (piece == kEmpty) {
        ++empties;
        continue;
      }
      if (empties > 0) {
        fen += static_cast<char>('0' + empties);
        empties = 0;
      }
      static constexpr const char* kNames = " pnbrqk";
      char c = kNames[std::abs(piece)];
      if (piece > 0) c = static_cast<char>(c - 'a' + 'A');
      fen += c;
    }
    if (empties > 0) fen += static_cast<char>('0' + empties);
    if (rank > 0) fen += '/';
  }
  return fen;
}

std::string to_uci(const Move& move) {
  if (!move.valid()) return "0000";
  auto square = [](Square sq) {
    std::string out;
    out += static_cast<char>('a' + (sq & 7));
    out += static_cast<char>('1' + (sq >> 4));
    return out;
  };
  std::string out = square(move.from) + square(move.to);
  if (move.promotion != 0) {
    static constexpr const char* kNames = " pnbrqk";
    out += kNames[move.promotion];
  }
  return out;
}

SearchResult search_basic(Board& board, int depth) {
  g_nodes = 0;
  SearchResult result;
  result.score = negamax(board, depth, -kMateScore - 1, kMateScore + 1,
                         &result.best);
  result.nodes = g_nodes;
  return result;
}

namespace {

int negamax_tt(Board& board, TranspositionTable& tt, int depth, int alpha,
               int beta, Move* best_out) {
  if (depth == 0) return quiescence(board, alpha, beta);
  ++g_nodes;

  const std::uint64_t key = board.hash();
  const int alpha_orig = alpha;
  Move tt_move;
  if (const TranspositionTable::Entry* entry = tt.probe(key)) {
    tt_move = entry->best;
    if (entry->depth >= depth && best_out == nullptr) {
      switch (entry->bound) {
        case TranspositionTable::Bound::kExact:
          return entry->score;
        case TranspositionTable::Bound::kLower:
          alpha = std::max(alpha, entry->score);
          break;
        case TranspositionTable::Bound::kUpper:
          beta = std::min(beta, entry->score);
          break;
      }
      if (alpha >= beta) return entry->score;
    }
  }

  std::vector<Move> moves;
  board.pseudo_moves(moves);
  std::sort(moves.begin(), moves.end(), [&](const Move& a, const Move& b) {
    // The TT move searches first, then MVV/LVA.
    const bool a_tt = a == tt_move;
    const bool b_tt = b == tt_move;
    if (a_tt != b_tt) return a_tt;
    return mvv_lva_score(board, a) > mvv_lva_score(board, b);
  });

  bool any_legal = false;
  Move best_move;
  int best_score = -kMateScore - 1;
  for (const Move& move : moves) {
    const Board::Undo undo = board.make_move(move);
    if (board.in_check(-board.side())) {
      board.unmake_move(undo);
      continue;
    }
    any_legal = true;
    const int score =
        -negamax_tt(board, tt, depth - 1, -beta, -alpha, nullptr);
    board.unmake_move(undo);
    if (score > best_score) {
      best_score = score;
      best_move = move;
    }
    alpha = std::max(alpha, score);
    if (alpha >= beta) break;
  }
  if (!any_legal) {
    return board.in_check(board.side()) ? -kMateScore + (100 - depth) : 0;
  }
  if (best_out != nullptr) *best_out = best_move;

  // Mate-distance scores are context-dependent; keep them out of the TT.
  if (std::abs(best_score) < kMateScore - 200) {
    TranspositionTable::Bound bound;
    if (best_score <= alpha_orig) {
      bound = TranspositionTable::Bound::kUpper;
    } else if (best_score >= beta) {
      bound = TranspositionTable::Bound::kLower;
    } else {
      bound = TranspositionTable::Bound::kExact;
    }
    tt.store(key, depth, best_score, bound, best_move);
  }
  return best_score;
}

}  // namespace

TranspositionTable::TranspositionTable(unsigned log2_entries)
    : table_(std::size_t{1} << log2_entries),
      mask_((std::uint64_t{1} << log2_entries) - 1) {}

const TranspositionTable::Entry* TranspositionTable::probe(
    std::uint64_t key) const {
  const Entry& entry = table_[key & mask_];
  if (entry.depth >= 0 && entry.key == key) {
    ++hits_;
    return &entry;
  }
  return nullptr;
}

void TranspositionTable::store(std::uint64_t key, int depth, int score,
                               Bound bound, const Move& best) {
  Entry& slot = table_[key & mask_];
  // Depth-preferred replacement; same-position entries always refresh.
  if (slot.depth >= 0 && slot.key != key && slot.depth > depth) return;
  slot.key = key;
  slot.depth = static_cast<std::int16_t>(depth);
  slot.score = score;
  slot.bound = bound;
  slot.best = best;
  ++stores_;
}

void TranspositionTable::clear() {
  std::fill(table_.begin(), table_.end(), Entry{});
  hits_ = 0;
  stores_ = 0;
}

RATTRAP_KERNEL_ENTRY SearchResult search(Board& board, int depth) {
  g_nodes = 0;
  TranspositionTable tt;
  SearchResult result;
  // Iterative deepening: shallow iterations seed the TT's move ordering
  // for the deeper ones.
  for (int d = 1; d <= depth; ++d) {
    result.score = negamax_tt(board, tt, d, -kMateScore - 1,
                              kMateScore + 1, &result.best);
  }
  result.nodes = g_nodes;
  return result;
}

std::uint64_t perft(Board& board, int depth) {
  if (depth == 0) return 1;
  std::uint64_t count = 0;
  std::vector<Move> moves;
  board.pseudo_moves(moves);
  for (const Move& move : moves) {
    const Board::Undo undo = board.make_move(move);
    if (!board.in_check(-board.side())) {
      count += perft(board, depth - 1);
    }
    board.unmake_move(undo);
  }
  return count;
}

}  // namespace rattrap::workloads::chess

namespace rattrap::workloads {

AppProfile ChessWorkload::app() const {
  // A chess engine ships substantial code relative to its tiny per-move
  // traffic: mobile code dominates migrated data (>50 %, Fig. 3).
  return AppProfile{"com.bench.chess", 2210 * 1024, 12};
}

TaskSpec ChessWorkload::make_task(sim::Rng& rng,
                                  std::uint32_t size_class) const {
  TaskSpec spec;
  spec.kind = Kind::kChess;
  spec.seed = rng();
  spec.size_class = size_class;
  spec.input_file_bytes = 0;  // no files: the state travels as params
  // Serialized engine state: position, full move history, opening-book
  // fragment and evaluation caches the offloaded search resumes from.
  spec.param_bytes =
      static_cast<std::uint64_t>(rng.uniform(120.0, 175.0) * 1024);
  spec.result_bytes = 1200;  // best move + principal variation + stats
  // Game interactivity: clock sync, ponder hints, progress events.
  spec.control_rounds =
      static_cast<std::uint32_t>(rng.uniform_int(8, 12));
  return spec;
}

TaskResult ChessWorkload::execute(const TaskSpec& spec) const {
  assert(spec.kind == Kind::kChess);
  sim::Rng rng(spec.seed);
  chess::Board board;
  // Midgame position: 12–28 random plies.
  board.randomize(rng, static_cast<int>(rng.uniform_int(12, 28)));
  const int depth = 3 + static_cast<int>(spec.size_class);
  const chess::SearchResult sr = chess::search(board, depth);
  TaskResult result;
  result.units.compute = sr.nodes;
  result.units.io_bytes = 0;
  result.checksum = board.hash() ^
                    (static_cast<std::uint64_t>(
                         static_cast<std::uint16_t>(sr.best.from))
                     << 32) ^
                    static_cast<std::uint64_t>(
                        static_cast<std::uint16_t>(sr.best.to)) ^
                    static_cast<std::uint64_t>(
                        static_cast<std::uint32_t>(sr.score))
                        << 8;
  return result;
}

}  // namespace rattrap::workloads
