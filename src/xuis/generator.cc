#include "xuis/generator.h"

#include <set>

#include "common/string_util.h"

namespace easia::xuis {

Result<XuisSpec> GenerateDefaultXuis(const db::Database& database,
                                     const GeneratorOptions& options) {
  XuisSpec spec;
  spec.database = database.name();
  const db::Catalog& catalog = database.catalog();
  for (const std::string& table_name : catalog.TableNames()) {
    EASIA_ASSIGN_OR_RETURN(const db::TableDef* def,
                           catalog.GetTable(table_name));
    EASIA_ASSIGN_OR_RETURN(const db::Table* table,
                           database.GetTable(table_name));
    XuisTable xt;
    xt.name = def->name;
    // primaryKey attribute: space-separated colids, as the paper writes it
    // (e.g. "RESULT_FILE.FILE_NAME RESULT_FILE.SIMULATION_KEY").
    std::vector<std::string> pk_colids;
    for (const std::string& pk : def->primary_key) {
      pk_colids.push_back(def->name + "." + pk);
    }
    xt.primary_key = Join(pk_colids, " ");
    for (const db::ColumnDef& col : def->columns) {
      XuisColumn xc;
      xc.name = col.name;
      xc.colid = def->name + "." + col.name;
      xc.type = col.type;
      xc.size = col.size;
      xc.is_primary_key = def->IsPrimaryKeyColumn(col.name);
      if (xc.is_primary_key) {
        for (const db::InboundReference& ref :
             catalog.ReferencesTo(def->name, col.name)) {
          xc.referenced_by.push_back(ref.from_table + "." + ref.from_column);
        }
      }
      if (const db::ForeignKeyDef* fk =
              catalog.ForeignKeyOn(def->name, col.name)) {
        FkSpec fks;
        fks.table_column = fk->ref_table + "." + fk->ref_columns[0];
        xc.fk = fks;
      }
      // Large objects don't make useful QBE samples. The harvest keeps
      // the first distinct values in RowId order, reading only this
      // column and stopping at the limit.
      if (options.harvest_samples && options.samples_per_column > 0 &&
          col.type != db::DataType::kBlob && col.type != db::DataType::kClob) {
        EASIA_ASSIGN_OR_RETURN(size_t col_idx, def->ColumnIndex(col.name));
        std::set<std::string> seen;
        table->column_store().ForEachValue(col_idx, [&](const db::Value& v) {
          if (!v.is_null()) seen.insert(v.ToDisplayString());
          return seen.size() < options.samples_per_column;
        });
        xc.samples.assign(seen.begin(), seen.end());
      }
      xt.columns.push_back(std::move(xc));
    }
    spec.tables.push_back(std::move(xt));
  }
  return spec;
}

}  // namespace easia::xuis
