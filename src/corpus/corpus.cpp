#include "corpus/corpus.h"

#include <stdexcept>

namespace sspar::corpus {

const char* suite_name(Suite suite) {
  switch (suite) {
    case Suite::Paper:
      return "paper";
    case Suite::NPB:
      return "NPB 3.3.1";
    case Suite::SuiteSparse:
      return "SuiteSparse 5.4.0";
  }
  return "?";
}

namespace {

std::vector<Entry> build_corpus() {
  std::vector<Entry> corpus;

  // ==========================================================================
  // Paper figures
  // ==========================================================================

  corpus.push_back(Entry{
      "fig2", Suite::Paper,
      "UA: inverse permutation through injective mt_to_id",
      R"(int nelt;
int mt_to_id[4096];
int id_to_mt[4096];
void f() {
  for (int i = 0; i < nelt; i++) {
    mt_to_id[i] = nelt - 1 - i;
  }
  for (int miel = 0; miel < nelt; miel++) {
    int iel = mt_to_id[miel];
    id_to_mt[iel] = miel;
  }
}
)",
      {{"nelt", 256, 1}},
      /*loops=*/2, /*subscripted=*/1, /*parallel=*/2, /*parallel_subscripted=*/1,
      /*has_pattern=*/true});

  corpus.push_back(Entry{
      "fig3", Suite::Paper,
      "CG: column adjustment over monotonic rowstr ranges",
      R"(int nrows;
int firstcol;
int cols[512];
int nzz[512];
int rowstr[513];
int colidx[8192];
void f() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
  for (int j = 0; j < nrows; j++) {
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      colidx[k] = colidx[k] - firstcol;
    }
  }
}
)",
      {{"nrows", 256, 1}, {"firstcol", 3, 0}},
      4, 2, 3, 2, true});

  corpus.push_back(Entry{
      "fig4", Suite::Paper,
      "CG: compression via the monotonic difference of rowstr and nzloc",
      R"(int nrows;
int w1[512];
int w2[512];
int rowstr[513];
int nzloc[513];
double a[8192];
double v[8192];
int colidx[8192];
int iv[8192];
void f() {
  rowstr[0] = 0;
  nzloc[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + 3 + (w1[i] > 0 ? 2 : 0);
  }
  for (int i = 1; i < nrows + 1; i++) {
    nzloc[i] = nzloc[i-1] + (w2[i] > 0 ? 2 : 0);
  }
  for (int j = 0; j < nrows; j++) {
    int j1;
    if (j > 0) {
      j1 = rowstr[j] - nzloc[j-1];
    } else {
      j1 = 0;
    }
    int j2 = rowstr[j+1] - nzloc[j];
    int nza = rowstr[j];
    for (int k = j1; k < j2; k++) {
      a[k] = v[nza];
      colidx[k] = iv[nza];
      nza = nza + 1;
    }
  }
}
)",
      {{"nrows", 256, 1}},
      4, 1, 1, 1, true});

  corpus.push_back(Entry{
      "fig5", Suite::Paper,
      "CSparse: guarded scatter through the injective subset of jmatch",
      R"(int m;
int flag[2048];
int jmatch[2048];
int imatch[8192];
void f() {
  for (int i = 0; i < m; i++) {
    flag[i] = (i % 3 == 0) ? 1 : 0;
  }
  for (int i = 0; i < m; i++) {
    if (flag[i] > 0) {
      jmatch[i] = 2 * i;
    } else {
      jmatch[i] = -1;
    }
  }
  for (int i = 0; i < m; i++) {
    if (jmatch[i] >= 0) {
      imatch[jmatch[i]] = i;
    }
  }
}
)",
      {{"m", 256, 1}},
      3, 1, 3, 1, true});

  corpus.push_back(Entry{
      "fig6", Suite::Paper,
      "CSparse: block scatter Blk[p[k]] with monotonic r and injective p",
      R"(int nb;
int nsz[512];
int r[513];
int pvec[2048];
int Blk[2048];
void f() {
  for (int i = 0; i < nb + 1; i++) {
    nsz[i] = i < nb ? 2 : 0;
  }
  r[0] = 0;
  for (int i = 1; i < nb + 1; i++) {
    r[i] = r[i-1] + nsz[i-1];
  }
  for (int i = 0; i < 2 * nb; i++) {
    pvec[i] = 2 * nb - 1 - i;
  }
  for (int b = 0; b < nb; b++) {
    for (int k = r[b]; k < r[b+1]; k++) {
      Blk[pvec[k]] = b;
    }
  }
}
)",
      {{"nb", 200, 1}},
      5, 2, 3, 1, true});

  corpus.push_back(Entry{
      "fig7", Suite::Paper,
      "UA: 7-wide windows over a strictly monotonic base",
      R"(int nref;
int nelttemp;
int ntemp;
int front[512];
int tree[8192];
void f() {
  for (int i = 0; i < nref; i++) {
    front[i] = i + 1;
  }
  for (int index = 0; index < nref; index++) {
    int nelt = nelttemp + front[index] * 7;
    for (int i = 0; i < 7; i++) {
      tree[nelt + i] = ntemp + (i + 1) % 8;
    }
  }
}
)",
      {{"nref", 256, 1}, {"nelttemp", 0, 0}, {"ntemp", 5, 0}},
      3, 1, 3, 1, true});

  corpus.push_back(Entry{
      "fig8", Suite::Paper,
      "UA: branch-dependent disjoint windows in the refinement step",
      R"(int nelt;
int ich[2048];
int front[2048];
int mt_to_id_old[2048];
int mt_to_id[32768];
int ref_front_id[32768];
void f() {
  for (int i = 0; i < nelt; i++) {
    front[i] = i + 1;
  }
  for (int i = 0; i < nelt; i++) {
    mt_to_id_old[i] = nelt - 1 - i;
  }
  for (int miel = 0; miel < nelt; miel++) {
    int iel = mt_to_id_old[miel];
    int ntemp;
    int mielnew;
    if (ich[iel] == 4) {
      ntemp = (front[miel] - 1) * 7;
      mielnew = miel + ntemp;
    } else {
      ntemp = front[miel] * 7;
      mielnew = miel + ntemp;
    }
    mt_to_id[mielnew] = iel;
    ref_front_id[iel] = nelt + ntemp;
  }
}
)",
      {{"nelt", 512, 1}},
      3, 1, 3, 1, true});

  corpus.push_back(Entry{
      "fig9", Suite::Paper,
      "CG: CSR construction and the rowptr-driven product loop",
      R"(int ROWLEN;
int COLUMNLEN;
int ind;
int index;
int j1;
int a[128][128];
int column_number[16384];
double value[16384];
double vector[16384];
double product_array[16384];
int rowsize[128];
int rowptr[129];
void f() {
  for (int i = 0; i < ROWLEN; i++) {
    int count = 0;
    for (int j = 0; j < COLUMNLEN; j++) {
      if (a[i][j] != 0) {
        count++;
        column_number[index++] = j;
        value[ind++] = a[i][j];
      }
    }
    rowsize[i] = count;
  }
  rowptr[0] = 0;
  for (int i = 1; i < ROWLEN + 1; i++) {
    rowptr[i] = rowptr[i-1] + rowsize[i-1];
  }
  for (int i = 0; i < ROWLEN + 1; i++) {
    if (i == 0) {
      j1 = i;
    } else {
      j1 = rowptr[i-1];
    }
    for (int j = j1; j < rowptr[i]; j++) {
      product_array[j] = value[j] * vector[j];
    }
  }
}
)",
      {{"ROWLEN", 96, 1}, {"COLUMNLEN", 96, 1}},
      5, 1, 2, 1, true});

  // ==========================================================================
  // Interprocedural variants: the index arrays are built inside helper
  // functions, the way real NPB/SuiteSparse codes structure their setup
  // (CG's makea/sparse). The analysis must prove the same properties through
  // function summaries that the hand-inlined twins (fig3/fig9/fig2) prove
  // directly; tests/ipa_test.cpp checks the verdicts are byte-identical.
  // ==========================================================================

  corpus.push_back(Entry{
      "ipa_cg", Suite::Paper,
      "CG setup in a helper: rowstr proven Monotonic_inc via its summary",
      R"(int nrows;
int firstcol;
int cols[512];
int nzz[512];
int rowstr[513];
int colidx[8192];
void build_rowstr() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
}
void f() {
  build_rowstr();
  for (int j = 0; j < nrows; j++) {
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      colidx[k] = colidx[k] - firstcol;
    }
  }
}
)",
      {{"nrows", 256, 1}, {"firstcol", 3, 0}},
      4, 2, 3, 2, true});

  corpus.push_back(Entry{
      "ipa_csr", Suite::Paper,
      "CSR row gathering in a per-row helper called inside the build loop (Fig. 9)",
      R"(int ROWLEN;
int COLUMNLEN;
int ind;
int index;
int j1;
int a[128][128];
int column_number[16384];
double value[16384];
double vector[16384];
double product_array[16384];
int rowsize[128];
int rowptr[129];
void fill_row(int i) {
  int count = 0;
  for (int j = 0; j < COLUMNLEN; j++) {
    if (a[i][j] != 0) {
      count++;
      column_number[index++] = j;
      value[ind++] = a[i][j];
    }
  }
  rowsize[i] = count;
}
void f() {
  for (int i = 0; i < ROWLEN; i++) {
    fill_row(i);
  }
  rowptr[0] = 0;
  for (int i = 1; i < ROWLEN + 1; i++) {
    rowptr[i] = rowptr[i-1] + rowsize[i-1];
  }
  for (int i = 0; i < ROWLEN + 1; i++) {
    if (i == 0) {
      j1 = i;
    } else {
      j1 = rowptr[i-1];
    }
    for (int j = j1; j < rowptr[i]; j++) {
      product_array[j] = value[j] * vector[j];
    }
  }
}
)",
      {{"ROWLEN", 96, 1}, {"COLUMNLEN", 96, 1}},
      5, 1, 2, 1, true});

  corpus.push_back(Entry{
      "ipa_scatter", Suite::Paper,
      "permutation scatter through an int-returning lookup helper (Fig. 2)",
      R"(int nelt;
int mt_to_id[4096];
int id_to_mt[4096];
int lookup(int m) {
  return mt_to_id[m];
}
void fill_perm() {
  for (int i = 0; i < nelt; i++) {
    mt_to_id[i] = nelt - 1 - i;
  }
}
void f() {
  fill_perm();
  for (int miel = 0; miel < nelt; miel++) {
    id_to_mt[lookup(miel)] = miel;
  }
}
)",
      {{"nelt", 512, 1}},
      2, 1, 2, 1, true});

  // ==========================================================================
  // Context-sensitive chains: the fact chain is SPLIT across two helpers the
  // way NPB CG's makea/sparse actually split it — helper A fills the count
  // array, helper B builds the CSR row pointer from it. B's base summary
  // (empty entry facts) cannot bound nzz[i-1], so proving rowstr
  // Monotonic_inc requires re-summarizing B under the caller facts A's
  // summary established (entry-fact projection; see ipa/summary.h).
  // ipa_cg_chain and ipa_spmv_chain share byte-identical helpers over
  // byte-identical globals on purpose: in a batch run the cross-program
  // summary cache hands one entry's helper summaries to the other.
  // ==========================================================================

  corpus.push_back(Entry{
      "ipa_cg_chain", Suite::Paper,
      "CG setup split across two helpers: rowstr Monotonic_inc needs B's "
      "summary specialized to the nzz facts A established",
      R"(int nrows;
int firstcol;
int cols[512];
int nzz[512];
int rowstr[513];
int colidx[8192];
void fill_nzz() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
}
void build_rowstr() {
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
}
void f() {
  fill_nzz();
  build_rowstr();
  for (int j = 0; j < nrows; j++) {
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      colidx[k] = colidx[k] - firstcol;
    }
  }
}
)",
      {{"nrows", 256, 1}, {"firstcol", 3, 0}},
      4, 2, 3, 2, true});

  corpus.push_back(Entry{
      "ipa_spmv_chain", Suite::Paper,
      "SpMV consumer over the same two-helper rowstr chain (helpers "
      "byte-identical to ipa_cg_chain: shared across programs in a batch)",
      R"(int nrows;
int cols[512];
int nzz[512];
int rowstr[513];
double aval[8192];
double p[513];
double q[513];
void fill_nzz() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 1 : 0;
  }
}
void build_rowstr() {
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
}
void f() {
  fill_nzz();
  build_rowstr();
  for (int j = 0; j < nrows; j++) {
    double sum = 0.0;
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      sum = sum + aval[k];
    }
    q[j] = sum * p[j];
  }
}
)",
      {{"nrows", 256, 1}},
      4, 2, 2, 1, true});

  corpus.push_back(Entry{
      "ipa_csr_chain", Suite::Paper,
      "CSR build (Fig. 9) split across two helpers: rowptr Monotonic_inc "
      "needs build_rowptr specialized to fill_rows' rowsize facts",
      R"(int ROWLEN;
int COLUMNLEN;
int ind;
int index;
int j1;
int a[128][128];
int column_number[16384];
double value[16384];
double vector[16384];
double product_array[16384];
int rowsize[128];
int rowptr[129];
void fill_rows() {
  for (int i = 0; i < ROWLEN; i++) {
    int count = 0;
    for (int j = 0; j < COLUMNLEN; j++) {
      if (a[i][j] != 0) {
        count++;
        column_number[index++] = j;
        value[ind++] = a[i][j];
      }
    }
    rowsize[i] = count;
  }
}
void build_rowptr() {
  rowptr[0] = 0;
  for (int i = 1; i < ROWLEN + 1; i++) {
    rowptr[i] = rowptr[i-1] + rowsize[i-1];
  }
}
void f() {
  fill_rows();
  build_rowptr();
  for (int i = 0; i < ROWLEN + 1; i++) {
    if (i == 0) {
      j1 = i;
    } else {
      j1 = rowptr[i-1];
    }
    for (int j = j1; j < rowptr[i]; j++) {
      product_array[j] = value[j] * vector[j];
    }
  }
}
)",
      {{"ROWLEN", 96, 1}, {"COLUMNLEN", 96, 1}},
      5, 1, 2, 1, true});

  // ==========================================================================
  // Hybrid inspector–executor entries: the enabling property is data-dependent
  // (the index array is an INPUT, not produced by fill code), so it is out of
  // static reach by construction. The analyzer classifies these loops hybrid
  // and the emitter wraps them in a dual-version loop guarded by the matching
  // sspar::rt runtime check (Section 4's fallback when compile-time
  // propagation cannot close the proof).
  // ==========================================================================

  corpus.push_back(Entry{
      "hybrid_perm", Suite::Paper,
      "permutation scatter over an input array: injectivity checked at runtime",
      R"(int n;
int perm[2048];
int inv[2048];
void f(void) {
  for (int i = 0; i < n; i++) {
    inv[perm[i]] = i;
  }
}
)",
      {{"n", 512, 1}},
      1, 1, 0, 0, false});

  corpus.push_back(Entry{
      "hybrid_scatter", Suite::Paper,
      "guarded scatter over an input match array: subset-injectivity checked at runtime",
      R"(int n;
int match[2048];
int out[8192];
void f(void) {
  for (int i = 0; i < n; i++) {
    if (match[i] >= 0) {
      out[match[i]] = i;
    }
  }
}
)",
      {{"n", 512, 1}},
      1, 1, 0, 0, false});

  corpus.push_back(Entry{
      "hybrid_csr", Suite::Paper,
      "CSR product loop over a row pointer built from input counts: monotonicity "
      "checked at runtime",
      R"(int n;
int rowcnt[128];
int rowptr[129];
double value[16384];
double vector[16384];
double product_array[16384];
void build_rowptr(void) {
  rowptr[0] = 0;
  for (int i = 1; i < n + 1; i++) {
    rowptr[i] = rowptr[i-1] + rowcnt[i-1];
  }
}
void f(void) {
  build_rowptr();
  for (int i = 0; i < n; i++) {
    for (int j = rowptr[i]; j < rowptr[i+1]; j++) {
      product_array[j] = value[j] * vector[j];
    }
  }
}
)",
      {{"n", 96, 1}},
      3, 2, 1, 1, true});

  // Symbolic-stride fill: idx[i] = m*i + 2 with m >= 1 is injective, but the
  // stride is not an integer constant, so only the chain-injectivity rule's
  // affine-injectivity proof (not the affine-value rule) parallelizes the
  // scatter loop. Statically parallel — no runtime check needed.
  corpus.push_back(Entry{
      "rec_affine_stride", Suite::Paper,
      "scatter through a symbolic-stride affine fill: injective via the "
      "nonzero-stride recurrence chain",
      R"(int n;
int m;
int idx[4096];
double x[4096];
double y[4096];
void f(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = m * i + 2;
  }
  for (int i = 0; i < n; i++) {
    y[idx[i]] = x[i] + 1.0;
  }
}
)",
      {{"n", 64, 1}, {"m", 3, 1}},
      2, 1, 2, 1, true});

  // Decreasing variant: stride -m <= -1 per position, still injective.
  corpus.push_back(Entry{
      "rec_affine_stride_dec", Suite::Paper,
      "scatter through a decreasing symbolic-stride fill (q - m*i)",
      R"(int n;
int m;
int q;
int idx[4096];
double x[4096];
double y[4096];
void f(void) {
  for (int i = 0; i < n; i++) {
    idx[i] = q - m * i;
  }
  for (int i = 0; i < n; i++) {
    y[idx[i]] = x[i] * 2.0;
  }
}
)",
      {{"n", 64, 1}, {"m", 3, 1}, {"q", 256, 200}},
      2, 1, 2, 1, true});

  // ==========================================================================
  // NAS Parallel Benchmarks v3.3.1 (6 of 10 programs exhibit the pattern)
  // ==========================================================================

  corpus.push_back(Entry{
      "CG", Suite::NPB,
      "sparse matrix-vector product over monotonic rowstr (Figs. 3/4/9)",
      R"(int nrows;
int cols[512];
int nzz[512];
int rowstr[513];
double aval[8192];
double p[513];
double q[513];
void f() {
  for (int i = 0; i < nrows; i++) {
    nzz[i] = cols[i] > 0 ? 2 : 1;
  }
  rowstr[0] = 0;
  for (int i = 1; i < nrows + 1; i++) {
    rowstr[i] = rowstr[i-1] + nzz[i-1];
  }
  for (int j = 0; j < nrows; j++) {
    double sum = 0.0;
    for (int k = rowstr[j]; k < rowstr[j+1]; k++) {
      sum = sum + aval[k];
    }
    q[j] = sum * p[j];
  }
}
)",
      {{"nrows", 256, 1}},
      4, 2, 2, 1, true});

  corpus.push_back(Entry{
      "IS", Suite::NPB,
      "integer sort: scatter through an injective rank array",
      R"(int n;
int key[4096];
int rank_arr[4096];
int sorted[8192];
void f() {
  for (int i = 0; i < n; i++) {
    key[i] = (i * 7 + 3) % n;
  }
  for (int i = 0; i < n; i++) {
    rank_arr[i] = 2 * i;
  }
  for (int i = 0; i < n; i++) {
    sorted[rank_arr[i]] = key[i];
  }
}
)",
      {{"n", 512, 1}},
      3, 1, 3, 1, true});

  corpus.push_back(Entry{
      "MG", Suite::NPB,
      "multigrid: per-level smoothing over prefix-sum level offsets",
      R"(int levels;
int m[128];
int off[129];
double u[8192];
void f() {
  for (int l = 0; l < levels; l++) {
    m[l] = l % 4 + 1;
  }
  off[0] = 0;
  for (int l = 1; l < levels + 1; l++) {
    off[l] = off[l-1] + m[l-1];
  }
  for (int l = 0; l < levels; l++) {
    for (int k = off[l]; k < off[l+1]; k++) {
      u[k] = u[k] * 0.5 + 1.0;
    }
  }
}
)",
      {{"levels", 100, 1}},
      4, 2, 3, 2, true});

  corpus.push_back(Entry{
      "SP", Suite::NPB,
      "scalar penta-diagonal: disjoint 5-wide cell windows",
      R"(int ncells;
int cell_start[512];
double rhs[8192];
void f() {
  for (int c = 0; c < ncells; c++) {
    cell_start[c] = 5 * c;
  }
  for (int c = 0; c < ncells; c++) {
    for (int j = 0; j < 5; j++) {
      rhs[cell_start[c] + j] = 1.0 * c + j;
    }
  }
}
)",
      {{"ncells", 512, 1}},
      3, 2, 3, 2, true});

  corpus.push_back(Entry{
      "LU", Suite::NPB,
      "LU: guarded update through a subset-injective pointer array",
      R"(int n;
int mask[4096];
int ptr[4096];
double z[8192];
void f() {
  for (int i = 0; i < n; i++) {
    mask[i] = (i % 3 == 0) ? 1 : 0;
  }
  for (int i = 0; i < n; i++) {
    if (mask[i] > 0) {
      ptr[i] = 2 * i;
    } else {
      ptr[i] = -1;
    }
  }
  for (int i = 0; i < n; i++) {
    if (ptr[i] >= 0) {
      z[ptr[i]] = 1.0 * i;
    }
  }
}
)",
      {{"n", 512, 1}},
      3, 1, 3, 1, true});

  corpus.push_back(Entry{
      "UA", Suite::NPB,
      "unstructured adaptive: permutation inversion plus refinement windows",
      R"(int nelt;
int mt_to_id[2048];
int id_to_mt[2048];
int front[2048];
int tree[32768];
void f() {
  for (int i = 0; i < nelt; i++) {
    mt_to_id[i] = nelt - 1 - i;
  }
  for (int miel = 0; miel < nelt; miel++) {
    int iel = mt_to_id[miel];
    id_to_mt[iel] = miel;
  }
  for (int i = 0; i < nelt; i++) {
    front[i] = i + 1;
  }
  for (int index = 0; index < nelt; index++) {
    int nelt2 = front[index] * 7;
    for (int i = 0; i < 7; i++) {
      tree[nelt2 + i] = index + (i + 1) % 8;
    }
  }
}
)",
      {{"nelt", 512, 1}},
      5, 2, 5, 2, true});

  corpus.push_back(Entry{
      "BT", Suite::NPB,
      "block tri-diagonal: dense affine stencils (no index arrays)",
      R"(int n;
double lhs[4096];
double rhs[4096];
void f() {
  for (int i = 1; i < n - 1; i++) {
    rhs[i] = lhs[i-1] + lhs[i+1];
  }
  for (int i = 0; i < n; i++) {
    lhs[i] = rhs[i] * 0.5;
  }
}
)",
      {{"n", 512, 3}},
      2, 0, 2, 0, false});

  corpus.push_back(Entry{
      "EP", Suite::NPB,
      "embarrassingly parallel: independent transform + histogram tally",
      R"(int n;
double q[10];
double xx[4096];
void f() {
  for (int i = 0; i < n; i++) {
    xx[i] = (1.0 * ((i * 31 + 7) % 100)) / 100.0;
  }
  for (int i = 0; i < n; i++) {
    int k = (i * 13) % 10;
    q[k] = q[k] + 1.0;
  }
}
)",
      {{"n", 512, 1}},
      2, 0, 1, 0, false});

  corpus.push_back(Entry{
      "FT", Suite::NPB,
      "fast Fourier transform: dense multi-dimensional initialization",
      R"(int n1;
int n2;
double u_r[64][64];
double u_i[64][64];
void f() {
  for (int i = 0; i < n1; i++) {
    for (int j = 0; j < n2; j++) {
      u_r[i][j] = 1.0 * i + j;
      u_i[i][j] = 1.0 * i - j;
    }
  }
}
)",
      {{"n1", 48, 1}, {"n2", 48, 1}},
      2, 0, 0, 0, false});

  corpus.push_back(Entry{
      "DC", Suite::NPB,
      "data cube: cursor-driven while loop (not analyzable statically)",
      R"(int n;
int total;
void f() {
  int i = 0;
  total = 0;
  while (i < n) {
    total = total + i;
    i = i + 1;
  }
}
)",
      {{"n", 512, 1}},
      0, 0, 0, 0, false});

  // ==========================================================================
  // SuiteSparse v5.4.0 (4 of 8 programs exhibit the pattern)
  // ==========================================================================

  corpus.push_back(Entry{
      "CSparse", Suite::SuiteSparse,
      "cs_maxtrans: guarded inverse of the injective match subset (Fig. 5)",
      R"(int m;
int deg[2048];
int jmatch[2048];
int imatch[8192];
void f() {
  for (int i = 0; i < m; i++) {
    deg[i] = (i % 2 == 0) ? 1 : 0;
  }
  for (int i = 0; i < m; i++) {
    if (deg[i] > 0) {
      jmatch[i] = 3 * i;
    } else {
      jmatch[i] = -1;
    }
  }
  for (int i = 0; i < m; i++) {
    if (jmatch[i] >= 0) {
      imatch[jmatch[i]] = i;
    }
  }
}
)",
      {{"m", 256, 1}},
      3, 1, 3, 1, true});

  corpus.push_back(Entry{
      "CXSparse", Suite::SuiteSparse,
      "cs_dmperm: block labeling through a permutation (Fig. 6)",
      R"(int nb;
int bw[512];
int r[513];
int pvec[2048];
int Blk[2048];
void f() {
  for (int i = 0; i < nb + 1; i++) {
    bw[i] = i < nb ? 3 : 0;
  }
  r[0] = 0;
  for (int i = 1; i < nb + 1; i++) {
    r[i] = r[i-1] + bw[i-1];
  }
  for (int i = 0; i < 3 * nb; i++) {
    pvec[i] = 3 * nb - 1 - i;
  }
  for (int b = 0; b < nb; b++) {
    for (int k = r[b]; k < r[b+1]; k++) {
      Blk[pvec[k]] = b;
    }
  }
}
)",
      {{"nb", 170, 1}},
      5, 2, 3, 1, true});

  corpus.push_back(Entry{
      "KLU", Suite::SuiteSparse,
      "klu: per-block solves over monotonic BTF boundaries",
      R"(int nblocks;
int bsz[512];
int btf[513];
double x[8192];
void f() {
  for (int b = 0; b < nblocks; b++) {
    bsz[b] = (b % 2 == 0) ? 3 : 1;
  }
  btf[0] = 0;
  for (int b = 1; b < nblocks + 1; b++) {
    btf[b] = btf[b-1] + bsz[b-1];
  }
  for (int b = 0; b < nblocks; b++) {
    for (int k = btf[b]; k < btf[b+1]; k++) {
      x[k] = x[k] * 2.0 + 1.0;
    }
  }
}
)",
      {{"nblocks", 256, 1}},
      4, 2, 3, 2, true});

  corpus.push_back(Entry{
      "CHOLMOD", Suite::SuiteSparse,
      "cholmod: scatter through the inverse fill-reducing permutation",
      R"(int n;
int perm[2048];
int iperm[2048];
void f() {
  for (int i = 0; i < n; i++) {
    perm[i] = n - 1 - i;
  }
  for (int i = 0; i < n; i++) {
    iperm[perm[i]] = i;
  }
}
)",
      {{"n", 512, 1}},
      2, 1, 2, 1, true});

  corpus.push_back(Entry{
      "AMD", Suite::SuiteSparse,
      "amd: degree initialization + sequential head accumulation",
      R"(int n;
int degree[4096];
int head;
void f() {
  head = 0;
  for (int i = 0; i < n; i++) {
    degree[i] = (i % 5 == 0) ? 2 : 1;
  }
  for (int i = 0; i < n; i++) {
    head = head + degree[i];
  }
}
)",
      {{"n", 512, 1}},
      2, 0, 1, 0, false});

  corpus.push_back(Entry{
      "COLAMD", Suite::SuiteSparse,
      "colamd: dense column scores (affine only)",
      R"(int n;
int score[4096];
int cdeg[4096];
void f() {
  for (int i = 0; i < n; i++) {
    cdeg[i] = (i % 7 == 0) ? 4 : 2;
  }
  for (int i = 0; i < n; i++) {
    score[i] = cdeg[i] * 2 + 1;
  }
}
)",
      {{"n", 512, 1}},
      2, 0, 2, 0, false});

  corpus.push_back(Entry{
      "UMFPACK", Suite::SuiteSparse,
      "umfpack: forward substitution (true flow recurrence)",
      R"(int n;
double lval[4096];
double b[4096];
double y[4096];
void f() {
  for (int i = 0; i < n; i++) {
    lval[i] = 0.5;
    b[i] = 1.0 * i;
  }
  y[0] = b[0];
  for (int i = 1; i < n; i++) {
    y[i] = b[i] - lval[i] * y[i-1];
  }
}
)",
      {{"n", 512, 2}},
      2, 0, 1, 0, false});

  corpus.push_back(Entry{
      "SPQR", Suite::SuiteSparse,
      "spqr: dense blocked Householder-like affine updates",
      R"(int n;
double w[4096];
double v[4096];
void f() {
  for (int i = 0; i < n; i++) {
    v[i] = 0.25 * i;
  }
  for (int i = 0; i < n; i++) {
    w[i] = v[i] * 2.0 - 1.0;
  }
}
)",
      {{"n", 512, 1}},
      2, 0, 2, 0, false});

  return corpus;
}

}  // namespace

const std::vector<Entry>& all_entries() {
  static const std::vector<Entry> corpus = build_corpus();
  return corpus;
}

std::vector<const Entry*> entries_of(Suite suite) {
  std::vector<const Entry*> out;
  for (const Entry& e : all_entries()) {
    if (e.suite == suite) out.push_back(&e);
  }
  return out;
}

const Entry* find_entry(const std::string& name) {
  for (const Entry& e : all_entries()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace sspar::corpus
