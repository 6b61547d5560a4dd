//! Output checks, computed apart from the program: the benchmark's own
//! CSC mat-vec and norms, an exact-bits hash, and seeded inputs.

use crate::stats::Rng;
use splu_sparse::CscMatrix;
use std::fmt::Write as _;
use std::path::Path;

/// Largest accepted scaled residual `‖b−Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`.
pub const RESIDUAL_TOL: f64 = 1e-12;

/// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
pub fn scaled_residual(a: &CscMatrix, x: &[f64], b: &[f64]) -> f64 {
    let cp = a.pattern().col_ptr();
    let ri = a.pattern().row_indices();
    let v = a.values();
    let mut r = b.to_vec();
    let mut row_abs = vec![0.0_f64; a.nrows()];
    for j in 0..a.ncols() {
        for p in cp[j]..cp[j + 1] {
            r[ri[p]] -= v[p] * x[j];
            row_abs[ri[p]] += v[p].abs();
        }
    }
    let inf = |w: &[f64]| w.iter().fold(0.0_f64, |m, y| m.max(y.abs()));
    inf(&r) / (inf(&row_abs) * inf(x) + inf(b))
}

/// `Ok` when `x` solves `A x = b` to [`RESIDUAL_TOL`].
pub fn residual_ok(a: &CscMatrix, x: &[f64], b: &[f64], what: &str) -> Result<(), String> {
    if x.len() != b.len() {
        return Err(format!(
            "{what}: {} solution values for order {}",
            x.len(),
            b.len()
        ));
    }
    let r = scaled_residual(a, x, b);
    if r <= RESIDUAL_TOL {
        Ok(())
    } else {
        Err(format!("{what}: scaled residual {r:e} > {RESIDUAL_TOL:e}"))
    }
}

/// FNV-1a over the little-endian bytes of each value's bit pattern — the
/// hash the daemon reports as `x_hash`, recomputed here from the oracle.
pub fn bits_hash(x: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in x {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a of a session name modulo the lane count: the daemon's routing.
pub fn lane_of(name: &str, lanes: usize) -> usize {
    let h = name.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    });
    (h as usize) % lanes
}

/// `base` with every value scaled by `1 + 0.1·u`, `u` uniform in
/// `[-1, 1)` from `rng`: a new value set on the same pattern.
pub fn perturbed(base: &CscMatrix, rng: &mut Rng) -> CscMatrix {
    let mut a = base.clone();
    for v in a.values_mut() {
        *v *= 1.0 + 0.1 * rng.signed_unit();
    }
    a
}

/// Writes `a` as Matrix Market `coordinate real general`, each value with
/// 18 significant digits so the file reads back to the same bits. The
/// benchmark writes its inputs itself rather than through the program's
/// writer, so a fault in the program's I/O shows as a failed check
/// instead of changing the inputs.
pub fn write_mtx(a: &CscMatrix, path: &Path) -> Result<(), String> {
    let mut out = String::with_capacity(a.nnz() * 36 + 64);
    out.push_str("%%MatrixMarket matrix coordinate real general\n");
    let _ = writeln!(out, "{} {} {}", a.nrows(), a.ncols(), a.nnz());
    for (i, j, v) in a.triplets() {
        let _ = writeln!(out, "{} {} {v:.17e}", i + 1, j + 1);
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Writes a vector one value per line, exactly (see [`write_mtx`]).
pub fn write_vector(x: &[f64], path: &Path) -> Result<(), String> {
    let mut out = String::with_capacity(x.len() * 26);
    for v in x {
        let _ = writeln!(out, "{v:.17e}");
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Reads a vector written one value per line.
pub fn read_vector(path: &Path) -> Result<Vec<f64>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(|l| {
            l.parse::<f64>()
                .map_err(|_| format!("bad value `{l}` in {}", path.display()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_of_exact_solution_is_tiny() {
        let a = splu_matgen::paper_matrix("sherman3", splu_matgen::Scale::Reduced).unwrap();
        let x = Rng::new(1, 0).vector(a.ncols());
        let b = a.mat_vec(&x);
        assert!(scaled_residual(&a, &x, &b) < 1e-15);
        let mut y = x.clone();
        y[0] += 1.0;
        assert!(residual_ok(&a, &y, &b, "perturbed").is_err());
    }

    #[test]
    fn written_files_read_back_exactly() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_work")
            .join(format!("unit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let a = perturbed(
            &splu_matgen::paper_matrix("lnsp3937", splu_matgen::Scale::Reduced).unwrap(),
            &mut Rng::new(3, 1),
        );
        write_mtx(&a, &dir.join("a.mtx")).unwrap();
        let back = splu_sparse::io::read_matrix_market(&dir.join("a.mtx")).unwrap();
        assert_eq!(back, a);
        let x = Rng::new(3, 2).vector(50);
        write_vector(&x, &dir.join("x.txt")).unwrap();
        assert_eq!(read_vector(&dir.join("x.txt")).unwrap(), x);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_matches_bits() {
        assert_ne!(bits_hash(&[0.0]), bits_hash(&[-0.0]));
        assert_eq!(bits_hash(&[1.5, 2.0]), bits_hash(&[1.5, 2.0]));
    }
}
