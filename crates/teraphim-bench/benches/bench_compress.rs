//! Coder throughput: the per-posting decode cost these numbers imply is
//! what `simnet::CostModel::cpu_per_posting` abstracts.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use teraphim_compress::bitio::{BitReader, BitWriter};
use teraphim_compress::codes::{
    read_delta, read_gamma, read_golomb, read_vbyte, write_delta, write_gamma, write_golomb,
    write_vbyte,
};
use teraphim_compress::huffman::HuffmanCode;
use teraphim_compress::textcomp::TextScan;

/// A deterministic pseudo-Zipfian gap sequence (what postings look
/// like).
fn gaps(n: usize) -> Vec<u64> {
    let mut state = 0x243F6A8885A308D3u64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Skewed towards small gaps.
            1 + (state >> 33) % (1 + (state >> 60))
        })
        .collect()
}

fn bench_integer_codes(c: &mut Criterion) {
    let values = gaps(10_000);
    let mut group = c.benchmark_group("integer_codes");
    group.throughput(Throughput::Elements(values.len() as u64));

    group.bench_function("gamma_encode", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &values {
                write_gamma(&mut w, v);
            }
            black_box(w.into_bytes())
        })
    });
    let mut w = BitWriter::new();
    for &v in &values {
        write_gamma(&mut w, v);
    }
    let gamma_bytes = w.into_bytes();
    group.bench_function("gamma_decode", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&gamma_bytes);
            let mut sum = 0u64;
            for _ in 0..values.len() {
                sum = sum.wrapping_add(read_gamma(&mut r).expect("valid stream"));
            }
            black_box(sum)
        })
    });

    group.bench_function("delta_encode", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &values {
                write_delta(&mut w, v);
            }
            black_box(w.into_bytes())
        })
    });
    let mut w = BitWriter::new();
    for &v in &values {
        write_delta(&mut w, v);
    }
    let delta_bytes = w.into_bytes();
    group.bench_function("delta_decode", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&delta_bytes);
            let mut sum = 0u64;
            for _ in 0..values.len() {
                sum = sum.wrapping_add(read_delta(&mut r).expect("valid stream"));
            }
            black_box(sum)
        })
    });

    let b_param = 8;
    group.bench_function("golomb_encode", |b| {
        b.iter(|| {
            let mut w = BitWriter::new();
            for &v in &values {
                write_golomb(&mut w, v, b_param);
            }
            black_box(w.into_bytes())
        })
    });
    let mut w = BitWriter::new();
    for &v in &values {
        write_golomb(&mut w, v, b_param);
    }
    let golomb_bytes = w.into_bytes();
    group.bench_function("golomb_decode", |b| {
        b.iter(|| {
            let mut r = BitReader::new(&golomb_bytes);
            let mut sum = 0u64;
            for _ in 0..values.len() {
                sum = sum.wrapping_add(read_golomb(&mut r, b_param).expect("valid stream"));
            }
            black_box(sum)
        })
    });

    group.bench_function("vbyte_roundtrip", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for &v in &values {
                write_vbyte(&mut out, v);
            }
            let mut pos = 0;
            let mut sum = 0u64;
            for _ in 0..values.len() {
                sum = sum.wrapping_add(read_vbyte(&out, &mut pos).expect("valid stream"));
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_huffman(c: &mut Criterion) {
    let freqs: Vec<u64> = (1..=256u64).map(|i| 100_000 / i).collect();
    c.bench_function("huffman_build_256", |b| {
        b.iter(|| black_box(HuffmanCode::from_frequencies(&freqs).expect("valid freqs")))
    });
}

fn bench_textcomp(c: &mut Criterion) {
    let doc = "the quick brown fox jumps over the lazy dog and the slow red hen ".repeat(40);
    let mut tokens = Vec::new();
    let mut scan = TextScan::default();
    scan.add(&doc, &mut tokens);
    let mut w = BitWriter::new();
    let model = scan.finish(&mut w, &mut Vec::new()).expect("train");
    let compressed = w.into_bytes();
    let mut group = c.benchmark_group("textcomp");
    group.throughput(Throughput::Bytes(doc.len() as u64));
    // As an append codes a document: one scan, coded with a trained model.
    group.bench_function("compress", |b| {
        b.iter(|| {
            let mut scan = TextScan::default();
            scan.add(&doc, &mut tokens);
            let mut w = BitWriter::new();
            scan.finish_with(&model, &mut w, &mut Vec::new());
            black_box(w.into_bytes())
        })
    });
    group.bench_function("decompress", |b| {
        b.iter(|| black_box(model.decompress(&compressed).expect("valid stream")))
    });
    group.finish();
}

criterion_group!(benches, bench_integer_codes, bench_huffman, bench_textcomp);
criterion_main!(benches);
