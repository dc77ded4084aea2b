"""Desk-scale singing voice conversion: a conditional denoising-diffusion
model over mel spectrograms, conditioned on content (PPG), melody (log-F0)
and loudness, with its own tensor/autodiff engine, feature extraction, and
MCD/FPC evaluation."""
