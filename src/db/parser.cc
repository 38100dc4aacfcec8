#include "db/parser.h"

#include "common/string_util.h"
#include "db/lexer.h"

namespace easia::db {

namespace {

class SqlParser {
 public:
  explicit SqlParser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (ConsumeKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      EASIA_ASSIGN_OR_RETURN(stmt.select, ParseSelectBody());
    } else if (ConsumeKeyword("EXPLAIN")) {
      stmt.kind = Statement::Kind::kExplain;
      if (ConsumeKeyword("ANALYZE")) stmt.explain_analyze = true;
      EASIA_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
      EASIA_ASSIGN_OR_RETURN(stmt.select, ParseSelectBody());
    } else if (ConsumeKeyword("INSERT")) {
      stmt.kind = Statement::Kind::kInsert;
      EASIA_ASSIGN_OR_RETURN(stmt.insert, ParseInsertBody());
    } else if (ConsumeKeyword("UPDATE")) {
      stmt.kind = Statement::Kind::kUpdate;
      EASIA_ASSIGN_OR_RETURN(stmt.update, ParseUpdateBody());
    } else if (ConsumeKeyword("DELETE")) {
      stmt.kind = Statement::Kind::kDelete;
      EASIA_ASSIGN_OR_RETURN(stmt.del, ParseDeleteBody());
    } else if (ConsumeKeyword("CREATE")) {
      stmt.kind = Statement::Kind::kCreateTable;
      EASIA_ASSIGN_OR_RETURN(stmt.create_table, ParseCreateTableBody());
    } else if (ConsumeKeyword("DROP")) {
      stmt.kind = Statement::Kind::kDropTable;
      EASIA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
      stmt.drop_table = std::make_unique<DropTableStmt>();
      EASIA_ASSIGN_OR_RETURN(stmt.drop_table->table, ExpectIdentifier());
    } else if (ConsumeKeyword("BEGIN")) {
      ConsumeKeyword("TRANSACTION") || ConsumeKeyword("WORK");
      stmt.kind = Statement::Kind::kBegin;
    } else if (ConsumeKeyword("COMMIT")) {
      ConsumeKeyword("TRANSACTION") || ConsumeKeyword("WORK");
      stmt.kind = Statement::Kind::kCommit;
    } else if (ConsumeKeyword("ROLLBACK")) {
      ConsumeKeyword("TRANSACTION") || ConsumeKeyword("WORK");
      stmt.kind = Statement::Kind::kRollback;
    } else if (ConsumeKeyword("COPY")) {
      stmt.kind = Statement::Kind::kCopy;
      EASIA_ASSIGN_OR_RETURN(stmt.copy, ParseCopyBody());
    } else {
      return Error("expected a SQL statement");
    }
    ConsumeSymbol(";");
    if (!AtEnd()) return Error("unexpected trailing tokens");
    return stmt;
  }

  Result<std::unique_ptr<Expr>> ParseStandaloneExpression() {
    EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
    if (!AtEnd()) return Error("unexpected trailing tokens after expression");
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& PeekAt(size_t ahead) const {
    size_t idx = pos_ + ahead;
    return idx < tokens_.size() ? tokens_[idx] : tokens_.back();
  }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }
  void Advance() {
    if (!AtEnd()) ++pos_;
  }

  Status Error(std::string_view msg) const {
    return Status::ParseError(StrPrintf("sql:%zu: %s (near '%s')",
                                        Peek().offset,
                                        std::string(msg).c_str(),
                                        Peek().text.c_str()));
  }

  bool CheckKeyword(std::string_view kw) const {
    return Peek().kind == TokenKind::kKeyword && Peek().text == kw;
  }

  bool ConsumeKeyword(std::string_view kw) {
    if (CheckKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectKeyword(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return Error("expected keyword " + std::string(kw));
    }
    return Status::OK();
  }

  bool CheckSymbol(std::string_view sym) const {
    return Peek().kind == TokenKind::kSymbol && Peek().text == sym;
  }

  bool ConsumeSymbol(std::string_view sym) {
    if (CheckSymbol(sym)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectSymbol(std::string_view sym) {
    if (!ConsumeSymbol(sym)) {
      return Error("expected '" + std::string(sym) + "'");
    }
    return Status::OK();
  }

  Result<std::string> ExpectIdentifier() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Error("expected identifier");
    }
    std::string name = Peek().text;
    Advance();
    return name;
  }

  /// Matches a context word (identifier or keyword) case-insensitively —
  /// used for DATALINK options so their words stay unreserved.
  bool ConsumeWord(std::string_view word) {
    if ((Peek().kind == TokenKind::kIdentifier ||
         Peek().kind == TokenKind::kKeyword) &&
        EqualsIgnoreCase(Peek().text, word)) {
      Advance();
      return true;
    }
    return false;
  }

  Status ExpectWord(std::string_view word) {
    if (!ConsumeWord(word)) {
      return Error("expected " + std::string(word));
    }
    return Status::OK();
  }

  // ---- SELECT ----

  Result<std::unique_ptr<SelectStmt>> ParseSelectBody() {
    auto stmt = std::make_unique<SelectStmt>();
    stmt->distinct = ConsumeKeyword("DISTINCT");
    // Select list.
    while (true) {
      SelectItem item;
      if (ConsumeSymbol("*")) {
        item.star = true;
      } else if (Peek().kind == TokenKind::kIdentifier &&
                 PeekAt(1).kind == TokenKind::kSymbol &&
                 PeekAt(1).text == "." && PeekAt(2).kind == TokenKind::kSymbol &&
                 PeekAt(2).text == "*") {
        item.star = true;
        item.star_table = Peek().text;
        Advance();
        Advance();
        Advance();
      } else {
        EASIA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("AS")) {
          EASIA_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
        } else if (Peek().kind == TokenKind::kIdentifier) {
          item.alias = Peek().text;
          Advance();
        }
      }
      stmt->items.push_back(std::move(item));
      if (!ConsumeSymbol(",")) break;
    }
    EASIA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    // FROM list with joins: base table, then any mix of "," refs and
    // "[INNER] JOIN ref ON expr".
    EASIA_ASSIGN_OR_RETURN(TableRef base, ParseTableRef());
    stmt->from.push_back(std::move(base));
    while (true) {
      if (ConsumeSymbol(",")) {
        EASIA_ASSIGN_OR_RETURN(TableRef ref, ParseTableRef());
        stmt->from.push_back(std::move(ref));
        continue;
      }
      if (ConsumeKeyword("INNER")) {
        EASIA_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      } else if (!ConsumeKeyword("JOIN")) {
        break;
      }
      EASIA_ASSIGN_OR_RETURN(TableRef joined, ParseTableRef());
      EASIA_RETURN_IF_ERROR(ExpectKeyword("ON"));
      EASIA_ASSIGN_OR_RETURN(joined.join_condition, ParseExpr());
      stmt->from.push_back(std::move(joined));
    }
    if (ConsumeKeyword("WHERE")) {
      EASIA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    if (ConsumeKeyword("GROUP")) {
      EASIA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        stmt->group_by.push_back(std::move(e));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      EASIA_ASSIGN_OR_RETURN(stmt->having, ParseExpr());
    }
    if (ConsumeKeyword("ORDER")) {
      EASIA_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        EASIA_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      EASIA_ASSIGN_OR_RETURN(stmt->limit, ExpectIntegerLiteral());
      if (ConsumeKeyword("OFFSET")) {
        EASIA_ASSIGN_OR_RETURN(stmt->offset, ExpectIntegerLiteral());
      }
    }
    return stmt;
  }

  Result<TableRef> ParseTableRef() {
    TableRef ref;
    EASIA_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    if (ConsumeKeyword("AS")) {
      EASIA_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().kind == TokenKind::kIdentifier) {
      ref.alias = Peek().text;
      Advance();
    } else {
      ref.alias = ref.table;
    }
    return ref;
  }

  Result<int64_t> ExpectIntegerLiteral() {
    if (Peek().kind != TokenKind::kInteger) {
      return Error("expected integer literal");
    }
    EASIA_ASSIGN_OR_RETURN(int64_t v, ParseInt64(Peek().literal));
    Advance();
    return v;
  }

  // ---- INSERT ----

  Result<std::unique_ptr<InsertStmt>> ParseInsertBody() {
    EASIA_RETURN_IF_ERROR(ExpectKeyword("INTO"));
    auto stmt = std::make_unique<InsertStmt>();
    EASIA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (ConsumeSymbol("(")) {
      while (true) {
        EASIA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
        stmt->columns.push_back(std::move(col));
        if (!ConsumeSymbol(",")) break;
      }
      EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
    }
    EASIA_RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    while (true) {
      EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
      std::vector<std::unique_ptr<Expr>> row;
      while (true) {
        EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        row.push_back(std::move(e));
        if (!ConsumeSymbol(",")) break;
      }
      EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
      stmt->rows.push_back(std::move(row));
      if (!ConsumeSymbol(",")) break;
    }
    return stmt;
  }

  // ---- UPDATE ----

  Result<std::unique_ptr<UpdateStmt>> ParseUpdateBody() {
    auto stmt = std::make_unique<UpdateStmt>();
    EASIA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    EASIA_RETURN_IF_ERROR(ExpectKeyword("SET"));
    while (true) {
      EASIA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
      EASIA_RETURN_IF_ERROR(ExpectSymbol("="));
      EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
      stmt->assignments.emplace_back(std::move(col), std::move(e));
      if (!ConsumeSymbol(",")) break;
    }
    if (ConsumeKeyword("WHERE")) {
      EASIA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  // ---- DELETE ----

  Result<std::unique_ptr<DeleteStmt>> ParseDeleteBody() {
    EASIA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    auto stmt = std::make_unique<DeleteStmt>();
    EASIA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    if (ConsumeKeyword("WHERE")) {
      EASIA_ASSIGN_OR_RETURN(stmt->where, ParseExpr());
    }
    return stmt;
  }

  // ---- CREATE TABLE ----

  Result<std::unique_ptr<CreateTableStmt>> ParseCreateTableBody() {
    EASIA_RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    auto stmt = std::make_unique<CreateTableStmt>();
    EASIA_ASSIGN_OR_RETURN(stmt->def.name, ExpectIdentifier());
    EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
    while (true) {
      if (ConsumeKeyword("PRIMARY")) {
        EASIA_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          EASIA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          stmt->def.primary_key.push_back(std::move(col));
          if (!ConsumeSymbol(",")) break;
        }
        EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
      } else if (ConsumeKeyword("FOREIGN")) {
        EASIA_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        ForeignKeyDef fk;
        EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          EASIA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          fk.columns.push_back(std::move(col));
          if (!ConsumeSymbol(",")) break;
        }
        EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
        EASIA_RETURN_IF_ERROR(ExpectKeyword("REFERENCES"));
        EASIA_ASSIGN_OR_RETURN(fk.ref_table, ExpectIdentifier());
        EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          EASIA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          fk.ref_columns.push_back(std::move(col));
          if (!ConsumeSymbol(",")) break;
        }
        EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
        stmt->def.foreign_keys.push_back(std::move(fk));
      } else if (ConsumeKeyword("UNIQUE")) {
        std::vector<std::string> cols;
        EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
        while (true) {
          EASIA_ASSIGN_OR_RETURN(std::string col, ExpectIdentifier());
          cols.push_back(std::move(col));
          if (!ConsumeSymbol(",")) break;
        }
        EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
        stmt->def.unique_constraints.push_back(std::move(cols));
      } else {
        EASIA_ASSIGN_OR_RETURN(ColumnDef col, ParseColumnDef());
        stmt->def.columns.push_back(std::move(col));
      }
      if (!ConsumeSymbol(",")) break;
    }
    EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
    // Optional storage / partitioning clauses in either order;
    // STORE/COLUMNAR/PARTITION/HASH/PARTITIONS stay contextual words.
    // Every table is columnar, so `STORE COLUMNAR` is accepted and ignored
    // (older snapshots and WALs carry it in their DDL).
    while (true) {
      if (ConsumeWord("STORE")) {
        EASIA_RETURN_IF_ERROR(ExpectWord("COLUMNAR"));
      } else if (ConsumeWord("PARTITION")) {
        EASIA_RETURN_IF_ERROR(ExpectKeyword("BY"));
        EASIA_RETURN_IF_ERROR(ExpectWord("HASH"));
        EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
        EASIA_ASSIGN_OR_RETURN(stmt->def.partition_by, ExpectIdentifier());
        EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
        EASIA_RETURN_IF_ERROR(ExpectWord("PARTITIONS"));
        EASIA_ASSIGN_OR_RETURN(int64_t n, ExpectIntegerLiteral());
        if (n < 1 || n > 1024) {
          return Error("PARTITIONS count must be between 1 and 1024");
        }
        stmt->def.partitions = static_cast<int>(n);
      } else {
        break;
      }
    }
    return stmt;
  }

  // ---- COPY (binary bulk ingest) ----

  Result<std::unique_ptr<CopyStmt>> ParseCopyBody() {
    auto stmt = std::make_unique<CopyStmt>();
    EASIA_ASSIGN_OR_RETURN(stmt->table, ExpectIdentifier());
    EASIA_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    if (Peek().kind != TokenKind::kString) {
      return Error("expected a quoted file path");
    }
    stmt->path = Peek().literal;
    Advance();
    return stmt;
  }

  Result<ColumnDef> ParseColumnDef() {
    ColumnDef col;
    EASIA_ASSIGN_OR_RETURN(col.name, ExpectIdentifier());
    if (ConsumeKeyword("DATALINK")) {
      col.type = DataType::kDatalink;
      EASIA_ASSIGN_OR_RETURN(col.datalink, ParseDatalinkOptions());
    } else {
      if (Peek().kind != TokenKind::kIdentifier) {
        return Error("expected column type");
      }
      EASIA_ASSIGN_OR_RETURN(col.type, DataTypeFromName(Peek().text));
      Advance();
      if (ConsumeSymbol("(")) {
        EASIA_ASSIGN_OR_RETURN(int64_t size, ExpectIntegerLiteral());
        if (size < 0) return Error("negative type size");
        col.size = static_cast<size_t>(size);
        EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
      }
    }
    while (true) {
      if (ConsumeKeyword("NOT")) {
        EASIA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
        col.not_null = true;
      } else if (ConsumeKeyword("PRIMARY")) {
        EASIA_RETURN_IF_ERROR(ExpectKeyword("KEY"));
        inline_primary_key_ = col.name;
      } else {
        break;
      }
    }
    return col;
  }

  Result<DatalinkOptions> ParseDatalinkOptions() {
    DatalinkOptions opts;
    // LINKTYPE URL (optional, URL is the only link type).
    if (ConsumeWord("LINKTYPE")) {
      EASIA_RETURN_IF_ERROR(ExpectWord("URL"));
    }
    while (true) {
      if (ConsumeWord("FILE")) {
        EASIA_RETURN_IF_ERROR(ExpectWord("LINK"));
        EASIA_RETURN_IF_ERROR(ExpectWord("CONTROL"));
        opts.file_link_control = true;
      } else if (CheckKeyword("NOT") &&
                 EqualsIgnoreCase(PeekAt(1).text, "FILE")) {
        // NO FILE LINK CONTROL is spelled "NO" in the draft; accept both.
        Advance();
        EASIA_RETURN_IF_ERROR(ExpectWord("FILE"));
        EASIA_RETURN_IF_ERROR(ExpectWord("LINK"));
        EASIA_RETURN_IF_ERROR(ExpectWord("CONTROL"));
        opts.file_link_control = false;
      } else if (ConsumeWord("NO")) {
        EASIA_RETURN_IF_ERROR(ExpectWord("FILE"));
        EASIA_RETURN_IF_ERROR(ExpectWord("LINK"));
        EASIA_RETURN_IF_ERROR(ExpectWord("CONTROL"));
        opts.file_link_control = false;
      } else if (ConsumeWord("INTEGRITY")) {
        if (ConsumeWord("ALL")) {
          opts.integrity = DatalinkOptions::Integrity::kAll;
        } else if (ConsumeWord("SELECTIVE")) {
          opts.integrity = DatalinkOptions::Integrity::kSelective;
        } else if (ConsumeWord("NONE")) {
          opts.integrity = DatalinkOptions::Integrity::kNone;
        } else {
          return Error("expected ALL, SELECTIVE or NONE after INTEGRITY");
        }
      } else if (ConsumeWord("READ")) {
        EASIA_RETURN_IF_ERROR(ExpectWord("PERMISSION"));
        if (ConsumeWord("DB")) {
          opts.read_permission = DatalinkOptions::ReadPermission::kDb;
        } else if (ConsumeWord("FS")) {
          opts.read_permission = DatalinkOptions::ReadPermission::kFs;
        } else {
          return Error("expected DB or FS after READ PERMISSION");
        }
      } else if (ConsumeWord("WRITE")) {
        EASIA_RETURN_IF_ERROR(ExpectWord("PERMISSION"));
        if (ConsumeWord("BLOCKED")) {
          opts.write_permission = DatalinkOptions::WritePermission::kBlocked;
        } else if (ConsumeWord("FS")) {
          opts.write_permission = DatalinkOptions::WritePermission::kFs;
        } else {
          return Error("expected BLOCKED or FS after WRITE PERMISSION");
        }
      } else if (ConsumeWord("RECOVERY")) {
        if (ConsumeWord("YES")) {
          opts.recovery = DatalinkOptions::Recovery::kYes;
        } else if (ConsumeWord("NO")) {
          opts.recovery = DatalinkOptions::Recovery::kNo;
        } else {
          return Error("expected YES or NO after RECOVERY");
        }
      } else if (ConsumeWord("ON")) {
        EASIA_RETURN_IF_ERROR(ExpectWord("UNLINK"));
        if (ConsumeWord("RESTORE")) {
          opts.on_unlink = DatalinkOptions::OnUnlink::kRestore;
        } else if (ConsumeWord("DELETE")) {
          opts.on_unlink = DatalinkOptions::OnUnlink::kDelete;
        } else {
          return Error("expected RESTORE or DELETE after ON UNLINK");
        }
      } else {
        break;
      }
    }
    return opts;
  }

  // ---- Expressions (precedence climbing) ----

  Result<std::unique_ptr<Expr>> ParseExpr() { return ParseOr(); }

  Result<std::unique_ptr<Expr>> ParseOr() {
    EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAnd());
      left = Expr::MakeBinary(Expr::Op::kOr, std::move(left),
                              std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseNot());
    while (ConsumeKeyword("AND")) {
      EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseNot());
      left = Expr::MakeBinary(Expr::Op::kAnd, std::move(left),
                              std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseNot());
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->op = Expr::Op::kNot;
      e->left = std::move(inner);
      return e;
    }
    return ParseComparison();
  }

  Result<std::unique_ptr<Expr>> ParseComparison() {
    EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseAdditive());
    // IS [NOT] NULL
    if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      EASIA_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kIsNull;
      e->negated = negated;
      e->left = std::move(left);
      return e;
    }
    bool negated = false;
    if (CheckKeyword("NOT") &&
        (PeekAt(1).text == "LIKE" || PeekAt(1).text == "IN")) {
      Advance();
      negated = true;
    }
    if (ConsumeKeyword("LIKE")) {
      EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAdditive());
      return Expr::MakeBinary(negated ? Expr::Op::kNotLike : Expr::Op::kLike,
                              std::move(left), std::move(right));
    }
    if (ConsumeKeyword("IN")) {
      EASIA_RETURN_IF_ERROR(ExpectSymbol("("));
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kInList;
      e->negated = negated;
      e->left = std::move(left);
      while (true) {
        EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> item, ParseExpr());
        e->args.push_back(std::move(item));
        if (!ConsumeSymbol(",")) break;
      }
      EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
      return e;
    }
    if (negated) return Error("dangling NOT");
    struct {
      const char* sym;
      Expr::Op op;
    } static constexpr kCmps[] = {
        {"=", Expr::Op::kEq},  {"<>", Expr::Op::kNe}, {"<=", Expr::Op::kLe},
        {">=", Expr::Op::kGe}, {"<", Expr::Op::kLt},  {">", Expr::Op::kGt},
    };
    for (const auto& cmp : kCmps) {
      if (ConsumeSymbol(cmp.sym)) {
        EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> right, ParseAdditive());
        return Expr::MakeBinary(cmp.op, std::move(left), std::move(right));
      }
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseMultiplicative());
    while (true) {
      if (ConsumeSymbol("+")) {
        EASIA_ASSIGN_OR_RETURN(auto right, ParseMultiplicative());
        left = Expr::MakeBinary(Expr::Op::kAdd, std::move(left),
                                std::move(right));
      } else if (ConsumeSymbol("-")) {
        EASIA_ASSIGN_OR_RETURN(auto right, ParseMultiplicative());
        left = Expr::MakeBinary(Expr::Op::kSub, std::move(left),
                                std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> left, ParseUnary());
    while (true) {
      if (ConsumeSymbol("*")) {
        EASIA_ASSIGN_OR_RETURN(auto right, ParseUnary());
        left = Expr::MakeBinary(Expr::Op::kMul, std::move(left),
                                std::move(right));
      } else if (ConsumeSymbol("/")) {
        EASIA_ASSIGN_OR_RETURN(auto right, ParseUnary());
        left = Expr::MakeBinary(Expr::Op::kDiv, std::move(left),
                                std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<std::unique_ptr<Expr>> ParseUnary() {
    if (ConsumeSymbol("-")) {
      EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseUnary());
      if (inner->kind == Expr::Kind::kLiteral &&
          inner->literal.IsNumericKind()) {
        // Fold negative literals.
        if (inner->literal.type() == DataType::kDouble) {
          inner->literal = Value::Double(-inner->literal.AsDouble());
        } else {
          inner->literal = Value::Integer(-inner->literal.AsInt());
        }
        return inner;
      }
      auto e = std::make_unique<Expr>();
      e->kind = Expr::Kind::kUnary;
      e->op = Expr::Op::kNeg;
      e->left = std::move(inner);
      return e;
    }
    return ParsePrimary();
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& tok = Peek();
    switch (tok.kind) {
      case TokenKind::kInteger: {
        EASIA_ASSIGN_OR_RETURN(int64_t v, ParseInt64(tok.literal));
        Advance();
        return Expr::MakeLiteral(Value::Integer(v));
      }
      case TokenKind::kDouble: {
        EASIA_ASSIGN_OR_RETURN(double v, ParseDouble(tok.literal));
        Advance();
        return Expr::MakeLiteral(Value::Double(v));
      }
      case TokenKind::kString: {
        std::string s = tok.literal;
        Advance();
        return Expr::MakeLiteral(Value::Varchar(std::move(s)));
      }
      case TokenKind::kKeyword:
        if (tok.text == "NULL") {
          Advance();
          return Expr::MakeLiteral(Value::Null());
        }
        return Error("unexpected keyword in expression");
      case TokenKind::kSymbol:
        if (tok.text == "(") {
          Advance();
          EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> inner, ParseExpr());
          EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
          return inner;
        }
        return Error("unexpected symbol in expression");
      case TokenKind::kIdentifier: {
        std::string first = tok.text;
        Advance();
        // Function call?
        if (CheckSymbol("(")) {
          Advance();
          auto e = std::make_unique<Expr>();
          e->kind = Expr::Kind::kCall;
          e->func = ToUpper(first);
          if (ConsumeSymbol("*")) {
            e->star = true;
            EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
            return e;
          }
          if (!ConsumeSymbol(")")) {
            while (true) {
              EASIA_ASSIGN_OR_RETURN(std::unique_ptr<Expr> arg, ParseExpr());
              e->args.push_back(std::move(arg));
              if (!ConsumeSymbol(",")) break;
            }
            EASIA_RETURN_IF_ERROR(ExpectSymbol(")"));
          }
          return e;
        }
        // Qualified column?
        if (CheckSymbol(".")) {
          Advance();
          EASIA_ASSIGN_OR_RETURN(std::string second, ExpectIdentifier());
          return Expr::MakeColumn(std::move(first), std::move(second));
        }
        return Expr::MakeColumn("", std::move(first));
      }
      case TokenKind::kEnd:
        return Error("unexpected end of SQL");
    }
    return Error("unexpected token");
  }

 public:
  /// Set when the column list used an inline `PRIMARY KEY` modifier.
  std::string inline_primary_key_;

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Statement> ParseSql(std::string_view sql) {
  EASIA_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(sql));
  SqlParser parser(std::move(tokens));
  EASIA_ASSIGN_OR_RETURN(Statement stmt, parser.ParseStatement());
  if (stmt.kind == Statement::Kind::kCreateTable &&
      !parser.inline_primary_key_.empty() &&
      stmt.create_table->def.primary_key.empty()) {
    stmt.create_table->def.primary_key.push_back(parser.inline_primary_key_);
  }
  return stmt;
}

Result<std::unique_ptr<Expr>> ParseExpression(std::string_view text) {
  EASIA_ASSIGN_OR_RETURN(std::vector<Token> tokens, LexSql(text));
  SqlParser parser(std::move(tokens));
  return parser.ParseStandaloneExpression();
}

}  // namespace easia::db
