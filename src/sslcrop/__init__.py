"""Crop-type classification from multispectral satellite time series.

Supervised transformer and random-forest baselines, two-branch siamese
pre-training with three augmentation policies, collapse monitoring,
fine-tuning, and contrastive nearest-class evaluation, over four
label-availability scenarios.
"""
