//! The row-major dense tensor type, generic over its [`Elem`] precision.

use serde::{Deserialize, Serialize};

use crate::elem::Elem;

/// A dense, row-major, heap-allocated tensor of arbitrary rank, holding
/// `f64` values unless another [`Elem`] is named.
///
/// Shapes are small (rank ≤ 4 in this workspace) and checked eagerly; all
/// out-of-contract uses panic with a descriptive message rather than
/// returning garbage — gradient code is much easier to debug that way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor<E = f64> {
    shape: Vec<usize>,
    data: Vec<E>,
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![0.0; len],
        }
    }

    /// A tensor filled with a constant.
    pub fn full(shape: &[usize], value: f64) -> Self {
        let len = shape.iter().product();
        Self {
            shape: shape.to_vec(),
            data: vec![value; len],
        }
    }

    /// Map a function over all elements, returning a new tensor.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }
}

impl<E: Elem> Tensor<E> {
    /// Wrap an existing buffer.
    ///
    /// # Panics
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<E>) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "Tensor::from_vec: shape {shape:?} wants {len} elements, got {}",
            data.len()
        );
        Self {
            shape: shape.to_vec(),
            data,
        }
    }

    /// The shape slice.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the backing buffer in row-major order.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// Mutable view of the backing buffer.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Consume the tensor and return its buffer.
    pub fn into_vec(self) -> Vec<E> {
        self.data
    }

    /// The same tensor at precision `F`, each value converted through f64
    /// ([`Elem::to_f64`], then [`Elem::from_f64`]): exact when widening,
    /// round-to-nearest when narrowing f64 to f32.
    pub fn cast<F: Elem>(&self) -> Tensor<F> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| F::from_f64(v.to_f64())).collect(),
        }
    }

    /// Reinterpret the buffer under a new shape with the same element count.
    ///
    /// # Panics
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            self.data.len(),
            len,
            "reshape: cannot view {:?} ({} elems) as {shape:?} ({len} elems)",
            self.shape,
            self.data.len()
        );
        self.shape = shape.to_vec();
        self
    }

    /// Stack same-shaped tensors into one batch tensor of shape
    /// `[B, ...shape]`, copying each example's buffer in order.
    ///
    /// # Panics
    /// Panics on an empty slice or a shape mismatch between examples.
    pub fn stack(examples: &[Tensor<E>]) -> Tensor<E> {
        let first = examples
            .first()
            .expect("Tensor::stack: empty example slice");
        let mut shape = Vec::with_capacity(first.shape.len() + 1);
        shape.push(examples.len());
        shape.extend_from_slice(&first.shape);
        let mut data = Vec::with_capacity(examples.len() * first.data.len());
        for (i, ex) in examples.iter().enumerate() {
            assert_eq!(
                ex.shape, first.shape,
                "Tensor::stack: example {i} has shape {:?}, expected {:?}",
                ex.shape, first.shape
            );
            data.extend_from_slice(&ex.data);
        }
        Tensor { shape, data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert!(t.data().iter().all(|&x| x == 0.0));
        let f = Tensor::full(&[4], 2.5);
        assert!(f.data().iter().all(|&x| x == 2.5));
    }

    #[test]
    #[should_panic(expected = "wants 6 elements")]
    fn from_vec_length_checked() {
        Tensor::from_vec(&[2, 3], vec![0.0; 5]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f64).collect());
        let r = t.reshape(&[6]);
        assert_eq!(r.shape(), &[6]);
        assert_eq!(r.data()[4], 4.0);
    }

    #[test]
    #[should_panic(expected = "cannot view")]
    fn reshape_count_checked() {
        Tensor::zeros(&[2, 3]).reshape(&[7]);
    }

    #[test]
    fn map_applies_elementwise() {
        let a = Tensor::from_vec(&[3], vec![5.5, 11.0, 16.5]);
        let m = a.map(|x| x * 2.0);
        assert_eq!(m.shape(), &[3]);
        assert_eq!(m.data(), &[11.0, 22.0, 33.0]);
    }

    #[test]
    fn stack_prepends_a_batch_dimension() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[2, 2], vec![5.0, 6.0, 7.0, 8.0]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.shape(), &[2, 2, 2]);
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "shape")]
    fn stack_checks_shapes() {
        Tensor::stack(&[Tensor::zeros(&[2]), Tensor::zeros(&[3])]);
    }

    #[test]
    fn cast_narrows_and_widens_exactly_once() {
        let t = Tensor::from_vec(&[3], vec![0.1, -2.5, 1e-40]);
        let narrow: Tensor<f32> = t.cast();
        assert_eq!(narrow.shape(), &[3]);
        assert_eq!(narrow.data(), &[0.1f32, -2.5, 1e-40]);
        let wide: Tensor = narrow.cast();
        assert_eq!(wide.data(), &[f64::from(0.1f32), -2.5, f64::from(1e-40f32)]);
        assert_eq!(t.cast::<f64>(), t);
    }

    #[test]
    fn serde_round_trips_both_precisions() {
        use serde::{Deserialize, Serialize};
        let t = Tensor::from_vec(&[2], vec![1.5, -0.25]);
        assert_eq!(Tensor::from_value(&t.to_value()).unwrap(), t);
        let narrow: Tensor<f32> = t.cast();
        let back: Tensor<f32> = Tensor::from_value(&narrow.to_value()).unwrap();
        assert_eq!(back, narrow);
    }
}
